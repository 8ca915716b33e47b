package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
)

// metric is one named, unit-carrying figure of the final JSON line.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one benchmark invocation measured and checked.
type result struct {
	passes   []pass // untraced
	traced   []pass
	metrics  []metric
	digest   string // hash of the first pass's model.* values
	failures []string
	attempts int
	failed   int
}

func (r result) correct() bool { return len(r.failures) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonSummary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary is the final output line. An attempt is one paradigm's
// build → submit → run cycle; a failed one broke an output check.
func (r result) summary() jsonSummary {
	s := jsonSummary{
		Correct: r.correct(), Attempted: r.attempts, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s
}

// measure repeats passes of w until budget has passed. Untraced, it
// reports the end-to-end metrics as medians over at least two passes.
// Traced, it alternates untraced and traced passes, so both see the
// same host conditions, and reports the per-layer metrics. Every pass
// uses the same seed, so all passes must agree on the simulated outputs.
func measure(w workloadSpec, seed int64, budget time.Duration, traced bool) (result, error) {
	var res result
	start := time.Now()
	for len(res.passes) < 2 || time.Since(start) < budget {
		p, err := runPass(w, seed, false)
		if err != nil {
			return res, err
		}
		res.passes = append(res.passes, p)
		if !traced {
			continue
		}
		if p, err = runPass(w, seed, true); err != nil {
			return res, err
		}
		res.traced = append(res.traced, p)
	}

	res.check(w)
	model := modelMetrics(res.passes[0])
	res.digest = digest(model)
	if traced {
		m, err := perLayerMetrics(w, res.passes, res.traced)
		if err != nil {
			return res, err
		}
		res.metrics = append(m, model...)
	} else {
		res.metrics = endToEndMetrics(res.passes)
	}
	sort.Slice(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	return res, nil
}

// check applies the output checks to every pass: settlement never
// exceeds submission, every cold node finishes its catch-up, and every
// pass — traced or not — reproduces the first pass's simulation.
func (r *result) check(w workloadSpec) {
	all := append(append([]pass(nil), r.passes...), r.traced...)
	ref := all[0]
	for i, p := range all {
		for j, run := range p.runs {
			r.attempts++
			bad := false
			if run.metrics.Confirmed > run.submitted {
				r.failures = append(r.failures, fmt.Sprintf("pass %d %s: settled %d > submitted %d",
					i, run.name, run.metrics.Confirmed, run.submitted))
				bad = true
			}
			if run.coldDone != w.cold {
				r.failures = append(r.failures, fmt.Sprintf("pass %d %s: %d of %d cold nodes finished catch-up",
					i, run.name, run.coldDone, w.cold))
				bad = true
			}
			if got, want := fingerprint(run), fingerprint(ref.runs[j]); got != want {
				r.failures = append(r.failures, fmt.Sprintf("pass %d %s: simulation differs from pass 0: %+v vs %+v",
					i, run.name, got, want))
				bad = true
			}
			if bad {
				r.failed++
			}
		}
	}
}

// simPrint is the part of a run that tracing and repetition must not
// change.
type simPrint struct {
	settled, pending, canonical, ledgerBytes int
	finality                                 float64
	events                                   uint64
	messages                                 int
	bytes                                    int64
}

func fingerprint(r paradigmRun) simPrint {
	return simPrint{
		settled: r.metrics.Confirmed, pending: r.metrics.Pending,
		canonical: r.canonical, ledgerBytes: r.metrics.LedgerBytes,
		finality: r.metrics.FinalityP50, events: r.events,
		messages: r.net.MessagesSent, bytes: r.net.BytesSent,
	}
}

// modelMetrics are the simulated outputs of one pass, per paradigm.
func modelMetrics(p pass) []metric {
	var out []metric
	for _, name := range allParadigms {
		var run paradigmRun
		for _, r := range p.runs {
			if r.name == name {
				run = r
			}
		}
		pre := "model." + name + "."
		out = append(out,
			metric{pre + "settled", float64(run.metrics.Confirmed), "count"},
			metric{pre + "pending", float64(run.metrics.Pending), "count"},
			metric{pre + "canonical_len", float64(run.canonical), "count"},
			metric{pre + "ledger_bytes", float64(run.metrics.LedgerBytes), "bytes"},
			metric{pre + "finality_p50_sim_s", run.metrics.FinalityP50, "sim-s"},
		)
	}
	return out
}

// digest hashes the model values, so a change can show in one line
// that it left the simulation unchanged.
func digest(model []metric) string {
	h := sha256.New()
	for _, m := range model {
		fmt.Fprintf(h, "%s=%s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// allParadigms fixes the per-paradigm metric names: every workload
// reports all four, zero for a paradigm it does not run.
var allParadigms = []string{"bitcoin", "ethereum", "nano", "tangle"}

// endToEndMetrics are medians over untraced passes.
func endToEndMetrics(passes []pass) []metric {
	col := func(f func(p pass) float64) float64 { return medianOf(passes, f) }
	return []metric{
		{"setup_s", col(pass.setupS), "s"},
		{"run_s", col(pass.runS), "s"},
		{"settled_per_s", col(func(p pass) float64 {
			settled, _ := p.settled()
			return float64(settled) / p.runS()
		}), "1/s"},
		{"alloc_mb", col(func(p pass) float64 { return float64(p.allocBytes) / 1e6 }), "MB"},
		{"live_heap_mb", col(func(p pass) float64 { return float64(p.liveHeap()) / 1e6 }), "MB"},
		{"settled_frac", col(func(p pass) float64 {
			settled, submitted := p.settled()
			return float64(settled) / float64(submitted)
		}), "ratio"},
	}
}

// cpuLayers are the layers the CPU profile is split into; a repo module
// outside this list is charged to cpu.other.
var cpuLayers = []string{
	"sim", "keys",
	"account", "utxo", "lattice", "tangle", "chain", "trie", "merkle", "hashx",
	"orv", "pow", "pos",
	"netsim", "workload", "metrics",
	"gc", "other",
}

// perLayerMetrics reads the traced passes: spans around each call into
// workload and netsim, the counters the public accessors expose, the
// counting Behavior's tallies and the CPU profile's layer split.
func perLayerMetrics(w workloadSpec, untraced, traced []pass) ([]metric, error) {
	col := func(f func(p pass) float64) float64 { return medianOf(traced, f) }
	runOf := func(p pass, name string) paradigmRun {
		for _, r := range p.runs {
			if r.name == name {
				return r
			}
		}
		return paradigmRun{}
	}
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// Counts are deterministic: the first traced pass stands for all.
	first := traced[0]
	var events uint64
	var pending, messages, dropped, settled, outbound, produced, votes int
	var netBytes int64
	var sync netsim.SyncStats
	expected := 0 // cold nodes × canonical length, summed over paradigms
	inbound := map[string]int{}
	for _, r := range first.runs {
		events += r.events
		pending += r.pendingEvents
		messages += r.net.MessagesSent
		netBytes += r.net.BytesSent
		dropped += r.net.Dropped + r.net.Partitioned + r.net.ChurnDropped + r.net.LossDropped
		settled += r.metrics.Confirmed
		outbound += r.counts.outbound
		produced += r.counts.produced
		votes += r.counts.votes
		for t, n := range r.counts.inbound {
			inbound[kindName(t)] += n
		}
		sync.SyncPulls += r.sync.SyncPulls
		sync.Retries += r.sync.Retries
		sync.RangePulls += r.sync.RangePulls
		sync.Rearms += r.sync.Rearms
		sync.Retargets += r.sync.Retargets
		sync.BlocksServed += r.sync.BlocksServed
		sync.BytesServed += r.sync.BytesServed
		sync.BacklogEvicted += r.sync.BacklogEvicted
		expected += w.cold * r.canonical
	}

	runS := col(pass.runS)
	add("sim.events", float64(events), "count")
	add("sim.events_per_s", float64(events)/runS, "1/s")
	add("sim.pending_end", float64(pending), "count")
	add("sim.net.messages", float64(messages), "count")
	add("sim.net.bytes", float64(netBytes), "bytes")
	add("sim.net.dropped", float64(dropped), "count")
	add("sim.net.msgs_per_settled", ratio(float64(messages), float64(settled)), "ratio")

	for _, kind := range knownKinds {
		add("netsim.inbound."+kind, float64(inbound[kind]), "count")
		delete(inbound, kind)
	}
	other := 0
	for _, n := range inbound {
		other += n
	}
	add("netsim.inbound.other", float64(other), "count")
	add("netsim.outbound", float64(outbound), "count")
	add("netsim.produced", float64(produced), "count")
	add("netsim.votes", float64(votes), "count")

	add("netsim.sync.pulls", float64(sync.SyncPulls), "count")
	add("netsim.sync.retries", float64(sync.Retries), "count")
	add("netsim.sync.range_pulls", float64(sync.RangePulls), "count")
	add("netsim.sync.rearms", float64(sync.Rearms), "count")
	add("netsim.sync.retargets", float64(sync.Retargets), "count")
	add("netsim.sync.blocks_served", float64(sync.BlocksServed), "count")
	add("netsim.sync.bytes_served", float64(sync.BytesServed), "bytes")
	add("netsim.sync.evicted", float64(sync.BacklogEvicted), "count")
	add("netsim.sync.retry_frac", ratio(float64(sync.Retries), float64(sync.SyncPulls+sync.RangePulls)), "ratio")
	add("netsim.sync.served_per_block", ratio(float64(sync.BlocksServed), float64(expected)), "ratio")

	for _, name := range allParadigms {
		pre := "netsim." + name + "."
		add(pre+"build_s", col(func(p pass) float64 { return runOf(p, name).buildS }), "s")
		add(pre+"submit_s", col(func(p pass) float64 { return runOf(p, name).submitS }), "s")
		add(pre+"run_s", col(func(p pass) float64 { return runOf(p, name).runS }), "s")
		add("netsim.sync.catchup_sim_s."+name, runOf(first, name).catchUp.Seconds(), "sim-s")
	}
	add("workload.gen_s", col(func(p pass) float64 { return p.genS }), "s")

	var stacks []stackCount
	for _, p := range traced {
		for _, r := range p.runs {
			s, err := decodeProfile(r.profile)
			if err != nil {
				return nil, err
			}
			stacks = append(stacks, s...)
		}
	}
	cpu := map[string]float64{}
	for layer, share := range layerShares(stacks) {
		if !slices.Contains(cpuLayers, layer) {
			layer = "other"
		}
		cpu[layer] += share
	}
	for _, layer := range cpuLayers {
		add("cpu."+layer, cpu[layer], "ratio")
	}

	add("runtime.gc_cycles", col(func(p pass) float64 { return float64(p.gcCycles) }), "count")
	add("runtime.gc_pause_s", col(func(p pass) float64 { return float64(p.gcPauseNs) / 1e9 }), "s")

	overhead := make([]float64, len(traced))
	for i := range traced {
		overhead[i] = traced[i].runS() / untraced[i].runS()
	}
	add("trace.overhead", median(overhead), "ratio")
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of f over passes.
func medianOf(passes []pass, f func(pass) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printReport writes the human-readable lines that precede the JSON
// line: one row per metric with its unit, the pass count and the model
// digest.
func printReport(out io.Writer, w workloadSpec, r result) {
	fmt.Fprintf(out, "workload %s: %s, %d nodes, %d untraced and %d traced passes\n",
		w.name, strings.Join(w.paradigms, ","), w.nodes, len(r.passes), len(r.traced))
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "model digest %s\n", r.digest)
}
