package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadSpec is one benchmark input: which registry paradigms run, on
// how wide a network, under what open-loop payment stream. Arrivals are
// Poisson in simulated time and never wait for settlement; on the host
// each paradigm is one batch (build, submit everything, run to the
// horizon).
type workloadSpec struct {
	name      string
	paradigms []string
	nodes     int
	accounts  int
	// rate payments per simulated second over load; the run stops at
	// horizon.
	rate    float64
	load    time.Duration
	horizon time.Duration
	// cold nodes (the highest indices) are detached from t=0 and rejoin
	// through ScheduleColdStart at rejoin; no payment touches them.
	cold   int
	rejoin time.Duration
}

// Every link draws a uniform 20–200 ms delay; every node gossips to 4
// peers.
const (
	minLatency = 20 * time.Millisecond
	maxLatency = 200 * time.Millisecond
	peerDegree = 4
)

var workloads = []workloadSpec{
	// The paper's §VI-B throughput comparison: the load is past both
	// chains' capacity and within both DAGs'. Signature crypto and live
	// ledger apply do the work; the event queue does almost none.
	{
		name:      "throughput-mix",
		paradigms: []string{"bitcoin", "ethereum", "nano", "tangle"},
		nodes:     16, accounts: 64,
		rate: 20, load: 30 * time.Second, horizon: 240 * time.Second,
	},
	// The §VI scalability axis: a wide network where memoized signature
	// checks leave the event queue, delivery, ORV votes and the GC with
	// the work. Ethereum is left out: its per-node transaction
	// re-verification is crypto-bound at any width, and this workload is
	// the crypto-bypass control.
	{
		name:      "wide-gossip",
		paradigms: []string{"bitcoin", "nano", "tangle"},
		nodes:     1500, accounts: 128,
		rate: 5, load: 10 * time.Second, horizon: 150 * time.Second,
	},
	// Cold-start catch-up: half the network is offline while the rest
	// settles a history, then rejoins and range-pulls it through the
	// sync manager, so the ledger layer is fed by range windows instead
	// of live gossip.
	{
		name:      "cold-join",
		paradigms: []string{"bitcoin", "nano", "tangle"},
		nodes:     16, accounts: 16,
		rate: 4, load: 300 * time.Second, horizon: 400 * time.Second,
		cold: 8, rejoin: 300 * time.Second,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// isCold reports whether node index i sits detached until rejoin.
func (w workloadSpec) isCold(i int) bool { return w.cold > 0 && i >= w.nodes-w.cold }

// payments generates the workload's stream from seed: exactly
// rate × load payments with exponential inter-arrival gaps, so every
// seed submits the same amount of work. With cold nodes the payments
// are drawn among the accounts of live nodes only (account i belongs
// to node i mod nodes, and cold nodes take the highest indices), which
// is E20's filter applied before the draw so the rate stays as stated.
func (w workloadSpec) payments(seed int64) []workload.TimedPayment {
	accounts := w.accounts
	if w.cold > 0 {
		accounts = min(accounts, w.nodes-w.cold)
	}
	want := int(w.rate * w.load.Seconds())
	// Twice the span holds want arrivals with overwhelming probability.
	stream := workload.Payments(rand.New(rand.NewSource(seed)), workload.Config{
		Accounts: accounts, Rate: w.rate, Duration: 2 * w.load,
	})
	return stream[:min(want, len(stream))]
}

// paradigmRun is what one paradigm's build → submit → run cycle leaves
// behind: host spans, the simulated outcome and the public counters.
type paradigmRun struct {
	name                  string
	buildS, submitS, runS float64
	submitted             int
	metrics               netsim.ParadigmMetrics
	canonical             int
	events                uint64
	pendingEvents         int
	net                   sim.NetStats
	sync                  netsim.SyncStats
	coldDone              int
	catchUp               time.Duration // slowest cold node's catch-up
	liveHeap              uint64
	counts                *counting // nil unless traced
	profile               []byte    // gzipped CPU profile, traced only
}

// pass is one run of every paradigm of a workload.
type pass struct {
	genS       float64
	allocBytes uint64
	runs       []paradigmRun
	gcCycles   uint32
	gcPauseNs  uint64
}

func (p pass) setupS() float64 {
	s := p.genS
	for _, r := range p.runs {
		s += r.buildS + r.submitS
	}
	return s
}

func (p pass) runS() float64 {
	s := 0.0
	for _, r := range p.runs {
		s += r.runS
	}
	return s
}

func (p pass) settled() (settled, submitted int) {
	for _, r := range p.runs {
		settled += r.metrics.Confirmed
		submitted += r.submitted
	}
	return settled, submitted
}

func (p pass) liveHeap() uint64 {
	var m uint64
	for _, r := range p.runs {
		m = max(m, r.liveHeap)
	}
	return m
}

// runPass builds, loads and runs every paradigm of w once. With traced
// set it installs a counting Behavior on every node and takes a CPU
// profile around each paradigm's cycle. The forced collections that
// measure live heap and reset the heap between paradigms run outside
// every timed span and profile.
func runPass(w workloadSpec, seed int64, traced bool) (pass, error) {
	runtime.GC()
	var start, ms runtime.MemStats
	runtime.ReadMemStats(&start)
	var out pass

	t := time.Now()
	load := w.payments(seed)
	out.genS = time.Since(t).Seconds()

	for _, name := range w.paradigms {
		spec, err := netsim.ParadigmByName(name)
		if err != nil {
			return pass{}, err
		}
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return pass{}, fmt.Errorf("start cpu profile: %w", err)
			}
		}
		r, net, err := runParadigm(w, spec, seed, load, traced)
		if traced {
			pprof.StopCPUProfile()
			r.profile = prof.Bytes()
		}
		if err != nil {
			return pass{}, err
		}
		runtime.ReadMemStats(&ms)
		allocated := ms.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.liveHeap = ms.HeapAlloc
		runtime.KeepAlive(net)
		out.runs = append(out.runs, r)
		// The network is garbage from here on; collect it so the next
		// paradigm starts from the same heap.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		out.allocBytes += allocated - start.TotalAlloc
		out.gcCycles += (ms.NumGC - start.NumGC) - (ms.NumForcedGC - start.NumForcedGC)
		out.gcPauseNs += ms.PauseTotalNs - start.PauseTotalNs
		start = ms
	}
	return out, nil
}

// runParadigm is one paradigm's timed cycle. It returns the network so
// the caller can measure its live heap while it is still reachable.
func runParadigm(w workloadSpec, spec netsim.ParadigmSpec, seed int64, load []workload.TimedPayment, traced bool) (paradigmRun, netsim.ParadigmNet, error) {
	r := paradigmRun{name: spec.Name, submitted: len(load)}
	np := netsim.NetParams{
		Nodes: w.nodes, PeerDegree: peerDegree, Seed: seed,
		MinLatency: minLatency, MaxLatency: maxLatency,
	}

	t := time.Now()
	net, err := spec.Build(np, netsim.BuildOptions{Accounts: w.accounts})
	if err != nil {
		return r, nil, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	r.buildS = time.Since(t).Seconds()

	if traced {
		r.counts = newCounting()
		for i := 0; i < net.Net().NumNodes(); i++ {
			net.Runtime().SetBehavior(sim.NodeID(i), r.counts)
		}
	}

	t = time.Now()
	for i := 0; i < w.nodes; i++ {
		if w.isCold(i) {
			net.ScheduleColdStart(i, 0, w.rejoin, 0)
		}
	}
	for _, p := range load {
		net.Submit(p)
	}
	r.submitS = time.Since(t).Seconds()

	t = time.Now()
	r.metrics = net.RunSpan(w.horizon)
	r.runS = time.Since(t).Seconds()

	r.canonical = net.CanonicalLength()
	r.events = net.Sim().EventsRun()
	r.pendingEvents = net.Sim().Pending()
	r.net = net.Net().Stats()
	r.sync = net.SyncStats()
	for i := 0; i < w.nodes; i++ {
		if !w.isCold(i) {
			continue
		}
		if took, ok := net.ColdSyncDone(i); ok {
			r.coldDone++
			r.catchUp = max(r.catchUp, took)
		}
	}
	return r, net, nil
}
