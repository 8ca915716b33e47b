package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

func TestAttributeChargesInnermostDecidingFrame(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"stdlib crypto counts toward its repo caller", []string{
			"crypto/internal/edwards25519.(*Point).ScalarMult",
			"crypto/ed25519.Verify",
			"repro/internal/keys.Verify",
			"repro/internal/account.(*Tx).VerifySig",
			"repro/internal/netsim.(*EthereumNet).onTx",
		}, "keys"},
		{"allocation under a repo frame is gc", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.newobject",
			"repro/internal/sim.(*Simulator).At",
		}, "gc"},
		{"background marking is gc", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"map access is charged to the caller", []string{
			"runtime.mapaccess2", "repro/internal/orv.(*Election).Tally",
		}, "orv"},
		{"benchmark frames count toward the repo caller", []string{
			"main.(*counting).OnInbound",
			"repro/internal/netsim.(*NodeRuntime).AddNode.func1",
			"repro/internal/sim.(*Network).deliver",
		}, "netsim"},
		{"nested package path names its module", []string{
			"repro/internal/lattice/inner.Apply",
		}, "lattice"},
		{"no repo frame is other", []string{
			"runtime.futex", "runtime.notesleep", "runtime.mstart",
		}, "other"},
		{"empty stack is other", nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// pbField appends one protobuf field: a varint for wire type 0, bytes
// for wire type 2.
func pbField(b []byte, field int, v uint64, msg []byte) []byte {
	if msg == nil {
		b = pbVarint(b, uint64(field)<<3)
		return pbVarint(b, v)
	}
	b = pbVarint(b, uint64(field)<<3|2)
	b = pbVarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestDecodeProfileSyntheticStacks(t *testing.T) {
	var p []byte
	strs := []string{"", "repro/internal/keys.Verify", "crypto/ed25519.Verify", "runtime.mallocgc", "repro/internal/sim.Run"}
	for _, s := range strs {
		p = pbField(p, 6, 0, append([]byte{}, s...))
	}
	for id := uint64(1); id <= 4; id++ {
		p = pbField(p, 5, 0, pbField(pbField(nil, 1, id, nil), 2, id, nil))
	}
	// Location 1 inlines ed25519.Verify (function 2) into keys.Verify
	// (function 1); location 2 is mallocgc, location 3 sim.Run.
	line := func(fn uint64) []byte { return pbField(nil, 1, fn, nil) }
	loc1 := pbField(pbField(pbField(nil, 1, 1, nil), 4, 0, line(2)), 4, 0, line(1))
	loc2 := pbField(pbField(nil, 1, 2, nil), 4, 0, line(3))
	loc3 := pbField(pbField(nil, 1, 3, nil), 4, 0, line(4))
	p = pbField(p, 4, 0, loc1)
	p = pbField(p, 4, 0, loc2)
	p = pbField(p, 4, 0, loc3)
	// Sample A: packed location ids [1, 3], values [7, 70].
	sa := pbField(nil, 1, 0, pbVarint(pbVarint(nil, 1), 3))
	sa = pbField(sa, 2, 0, pbVarint(pbVarint(nil, 7), 70))
	// Sample B: unpacked location ids 2 then 3, value 3.
	sb := pbField(pbField(nil, 1, 2, nil), 1, 3, nil)
	sb = pbField(sb, 2, 3, nil)
	p = pbField(p, 2, 0, sa)
	p = pbField(p, 2, 0, sb)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	stacks, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("got %d stacks, want 2", len(stacks))
	}
	wantA := "crypto/ed25519.Verify,repro/internal/keys.Verify,repro/internal/sim.Run"
	if got := strings.Join(stacks[0].frames, ","); got != wantA || stacks[0].count != 7 {
		t.Errorf("stack A = %s x%d, want %s x7", got, stacks[0].count, wantA)
	}
	if shares := layerShares(stacks); len(shares) != 2 || shares["keys"] != 0.7 || shares["gc"] != 0.3 {
		t.Errorf("shares = %v, want keys 0.7, gc 0.3", shares)
	}
	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
}

func TestDecodeProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				return
			}
		}
	}
	t.Errorf("no sample of spin among %d stacks", len(stacks))
}

func TestPaymentsFixedCountAndLiveAccounts(t *testing.T) {
	for _, w := range workloads {
		a, b := w.payments(7), w.payments(7)
		if want := int(w.rate * w.load.Seconds()); len(a) != want {
			t.Errorf("%s: %d payments, want %d", w.name, len(a), want)
		}
		for i, p := range a {
			if p != b[i] {
				t.Fatalf("%s: same seed gave different payment %d", w.name, i)
			}
			if w.isCold(p.From%w.nodes) || w.isCold(p.To%w.nodes) {
				t.Fatalf("%s: payment %d touches a cold node: %+v", w.name, i, p)
			}
			if p.At > w.load*2 {
				t.Fatalf("%s: payment %d at %v, past twice the load span", w.name, i, p.At)
			}
		}
		if w.cold > 0 && w.accounts > w.nodes {
			t.Errorf("%s: live-account draw assumes accounts <= nodes", w.name)
		}
		for _, name := range w.paradigms {
			if _, err := netsim.ParadigmByName(name); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

func TestCheckFlagsBadPasses(t *testing.T) {
	w := workloadSpec{name: "t", cold: 1}
	good := paradigmRun{name: "nano", submitted: 10, coldDone: 1, events: 5}
	good.metrics.Confirmed = 10
	over := good
	over.metrics.Confirmed = 11
	diverged := good
	diverged.events = 6
	stuck := good
	stuck.coldDone = 0

	r := result{passes: []pass{{runs: []paradigmRun{good}}, {runs: []paradigmRun{good}}}}
	r.check(w)
	if !r.correct() || r.attempts != 2 {
		t.Fatalf("good passes: failures %v, attempts %d", r.failures, r.attempts)
	}
	for _, bad := range []paradigmRun{over, diverged, stuck} {
		r := result{passes: []pass{{runs: []paradigmRun{good}}}, traced: []pass{{runs: []paradigmRun{bad}}}}
		r.check(w)
		if r.correct() || r.failed != 1 {
			t.Errorf("%+v: failed %d, failures %v", bad, r.failed, r.failures)
		}
	}
}

// tiny shrinks a workload so a test runs it in about a second.
func tiny(w workloadSpec) workloadSpec {
	w.nodes = min(w.nodes, 16)
	w.load /= 10
	w.horizon /= 10
	w.rejoin /= 10
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestTinyWorkloadsProduceDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(tiny(w), 3, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %v", w.name, traced, res.failures)
			}
			got := res.summary().Metrics
			for name := range got {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.name, name)
				}
			}
			declared := bench.EndToEnd
			if traced {
				declared = bench.PerLayer
			}
			for _, m := range declared {
				if g, ok := got[m.Name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s not produced", w.name, traced, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, m.Name, g.Unit, m.Unit)
				}
			}
			if len(got) != len(declared) {
				t.Errorf("%s traced=%v: produced %d metrics, declared %d", w.name, traced, len(got), len(declared))
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-join", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
