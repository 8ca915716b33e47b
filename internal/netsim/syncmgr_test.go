package netsim

// Tests for the sync manager: the two historical gap-repair failure
// modes (pin-to-dead-target, no re-arm after budget exhaustion) and
// their repair, the bounded lattice gap buffer under a parentless
// flood, and the cold-start range-pull bootstrap on both paradigms.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/sim"
	"repro/internal/workload"
)

// syncGapCfg is a tiny 4-node lattice network for gap-repair scenarios.
func syncGapCfg(seed int64) NanoConfig {
	return NanoConfig{
		Net: NetParams{
			Nodes: 4, PeerDegree: 2, Seed: seed,
			MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
		},
		Accounts: 8,
		Reps:     2,
	}
}

// isolateRelays pins every node's relay view so crafted blocks cannot
// leak to the victim (node 0) by gossip: recovery must come from the
// sync manager's pulls, not from a lucky flood.
func isolateRelays(n *NanoNet) {
	n.rt.net.SetPeersOf(0, []sim.NodeID{2})
	n.rt.net.SetPeersOf(1, []sim.NodeID{2})
	n.rt.net.SetPeersOf(2, []sim.NodeID{3})
	n.rt.net.SetPeersOf(3, []sim.NodeID{2})
}

// craftChain builds two chained sends on the given lattice (processing
// them locally, never publishing) and returns them oldest-first.
func craftChain(t *testing.T, n *NanoNet, lat *lattice.Lattice) (b1, b2 *lattice.Block) {
	t.Helper()
	b1, err := lat.NewSend(n.ring.Pair(1), n.ring.Addr(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := lat.Process(b1); res.Status != lattice.Accepted {
		t.Fatalf("craft b1: %v", res.Status)
	}
	b2, err = lat.NewSend(n.ring.Pair(1), n.ring.Addr(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := lat.Process(b2); res.Status != lattice.Accepted {
		t.Fatalf("craft b2: %v", res.Status)
	}
	return b1, b2
}

// runDeadTargetScenario reproduces the first historical bug: node 1 crafts
// two chained blocks, node 0 receives only the child from node 1, and
// node 1 churns out before the pull chain can be served — while live
// nodes 2 and 3 hold the missing parent the whole time. The pull's only
// hope is re-targeting off the dead sender.
func runDeadTargetScenario(t *testing.T) *NanoNet {
	t.Helper()
	net, err := NewNano(syncGapCfg(501))
	if err != nil {
		t.Fatal(err)
	}
	isolateRelays(net)
	b1, b2 := craftChain(t, net, net.nodes[1].lat)
	// Live nodes 2 and 3 hold the parent; node 0 never sees it by relay.
	net.onBlock(net.nodes[2], net.nodes[1].id, b1)
	net.onBlock(net.nodes[3], net.nodes[2].id, b1)

	// The churn schedule arms gap repair and kills the sender.
	fs := FaultSchedule{Churn: []ChurnWindow{{Node: 1, LeaveAt: 100 * time.Millisecond}}}
	fs.ApplyToNano(net)
	net.rt.sim.At(200*time.Millisecond, func() {
		net.onBlock(net.nodes[0], net.nodes[1].id, b2)
	})
	net.Run(15 * time.Second)

	if _, ok := net.nodes[2].lat.Get(b1.Hash()); !ok {
		t.Fatal("scenario setup broken: node 2 does not hold the parent")
	}
	return net
}

// The pull re-targets to a live peer and the gap drains.
func TestSyncPullRetargetsOffDetachedSender(t *testing.T) {
	net := runDeadTargetScenario(t)
	if got := net.nodes[0].lat.GapCount(); got != 0 {
		t.Fatalf("victim still has %d gaps; re-target never recovered the parent", got)
	}
	if st := net.SyncStats(); st.Retargets == 0 {
		t.Fatalf("gap drained without a re-target (stats %+v) — scenario lost its teeth", st)
	}
}

// runExhaustionScenario reproduces the second historical bug: the pull
// target is alive but does not hold the missing parent, so all
// maxGapRepairAttempts requests go unserved (~9.6 s). The parent only
// becomes available on live nodes afterwards — recovery requires the
// exhausted pull to re-arm instead of abandoning the gap forever.
func runExhaustionScenario(t *testing.T) *NanoNet {
	t.Helper()
	net, err := NewNano(syncGapCfg(511))
	if err != nil {
		t.Fatal(err)
	}
	isolateRelays(net)
	// Craft on a detached clone: no live node holds b1 or b2 yet.
	donor := net.nodes[1].lat.Clone()
	b1, b2 := craftChain(t, net, donor)

	net.EnableGapRepair()
	net.rt.sim.At(200*time.Millisecond, func() {
		net.onBlock(net.nodes[0], net.nodes[1].id, b2)
	})
	// Long after the 64-attempt budget is spent, the parent surfaces on
	// every live node except the victim (relay isolation keeps it away).
	net.rt.sim.At(12*time.Second, func() {
		net.onBlock(net.nodes[1], net.nodes[3].id, b1)
		net.onBlock(net.nodes[2], net.nodes[3].id, b1)
		net.onBlock(net.nodes[3], net.nodes[2].id, b1)
	})
	net.Run(25 * time.Second)
	return net
}

// The exhausted pull re-arms with capped backoff against a rotated
// target and eventually drains the gap.
func TestSyncPullRearmsAfterExhaustion(t *testing.T) {
	net := runExhaustionScenario(t)
	if got := net.nodes[0].lat.GapCount(); got != 0 {
		t.Fatalf("victim still has %d gaps; exhausted pull never re-armed", got)
	}
	st := net.SyncStats()
	if st.Rearms == 0 {
		t.Fatalf("gap drained without a re-arm (stats %+v) — scenario lost its teeth", st)
	}
}

// A flood of parentless blocks must not grow the lattice gap buffer
// without bound; evicted blocks unmark their dedup bit so they can be
// re-delivered (mirrors the pendingOrder flood test in nano_batch_test).
func TestNanoGapBufferFloodBounded(t *testing.T) {
	cfg := syncGapCfg(521)
	cfg.BacklogCap = 8
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	isolateRelays(net)
	victim := net.nodes[0]

	// Craft a long chain on a detached clone and deliver everything but
	// the root: every delivered block parks as a gap.
	donor := net.nodes[1].lat.Clone()
	blocks := make([]*lattice.Block, 0, 30)
	for i := 0; i < 30; i++ {
		b, err := donor.NewSend(net.ring.Pair(1), net.ring.Addr(2+i%3), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res := donor.Process(b); res.Status != lattice.Accepted {
			t.Fatalf("craft block %d: %v", i, res.Status)
		}
		blocks = append(blocks, b)
	}
	for _, b := range blocks[1:] {
		net.onBlock(victim, net.nodes[1].id, b)
	}

	if got := victim.lat.GapCount(); got > cfg.BacklogCap {
		t.Fatalf("gap buffer holds %d blocks, cap %d", got, cfg.BacklogCap)
	}
	if victim.lat.GapEvictions() == 0 {
		t.Fatal("flood past the cap evicted nothing")
	}
	if st := net.SyncStats(); st.BacklogEvicted == 0 {
		t.Fatalf("evictions not surfaced in SyncStats: %+v", st)
	}

	// The oldest delivered block was evicted FIFO; its dedup bit must be
	// clear so a re-delivery parks it again instead of vanishing.
	evictions := victim.lat.GapEvictions()
	net.onBlock(victim, net.nodes[1].id, blocks[1])
	if got := victim.lat.GapEvictions(); got != evictions+1 {
		t.Fatalf("re-delivered evicted block did not re-park (evictions %d -> %d); dedup bit still set", evictions, got)
	}
	if got := victim.lat.GapCount(); got > cfg.BacklogCap {
		t.Fatalf("re-park overflowed the cap: %d > %d", got, cfg.BacklogCap)
	}
}

// Cold start on the lattice: a node that missed the whole run range-pulls
// the canonical history stream after rejoin and converges on the
// observer's exact block set.
func TestNanoColdStartCatchesUp(t *testing.T) {
	cfg := NanoConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 531,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		Accounts: 12,
		Reps:     4,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the cold node's accounts out of the workload: a detached owner
	// would otherwise mint sends the network never sees.
	all := workload.Payments(rand.New(rand.NewSource(532)), workload.Config{
		Accounts: 12, Rate: 8, Duration: 3 * time.Second, MaxAmount: 3,
	})
	var transfers []workload.TimedPayment
	for _, p := range all {
		if p.From%cfg.Net.Nodes != 5 && p.To%cfg.Net.Nodes != 5 {
			transfers = append(transfers, p)
		}
	}
	net.ScheduleColdStart(5, 100*time.Millisecond, 4*time.Second, 16)
	net.RunWithTransfers(10*time.Second, transfers)

	took, ok := net.ColdSyncDone(5)
	if !ok {
		t.Fatalf("cold sync never completed: %+v", net.SyncStats())
	}
	if took <= 0 {
		t.Fatalf("cold sync took %v", took)
	}
	st := net.SyncStats()
	if st.RangePulls < 2 || st.BytesServed == 0 {
		t.Fatalf("range-pull machinery idle: %+v", st)
	}
	obs, cold := net.nodes[0].lat, net.nodes[5].lat
	if cold.GapCount() != 0 {
		t.Fatalf("cold node still has %d gaps", cold.GapCount())
	}
	if obs.BlockCount() != cold.BlockCount() {
		t.Fatalf("cold node holds %d blocks, observer %d", cold.BlockCount(), obs.BlockCount())
	}
}

// Cold start on the chain: a relay-only node that missed an hour of
// mining range-pulls the main chain after rejoin and converges.
func TestBitcoinColdStartCatchesUp(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 541,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		HashRates:     []float64{1, 1, 1, 1, 1, 0},
		BlockInterval: 2 * time.Second,
		Accounts:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.ScheduleColdStart(5, 1*time.Second, 60*time.Second, 8)
	m := net.Run(90 * time.Second)

	if m.BlocksOnMain == 0 {
		t.Fatal("no blocks mined")
	}
	if _, ok := net.ColdSyncDone(5); !ok {
		t.Fatalf("cold sync never completed: %+v", net.SyncStats())
	}
	if st := net.SyncStats(); st.RangePulls < 2 || st.BlocksServed == 0 {
		t.Fatalf("range-pull machinery idle: %+v", st)
	}
	if !net.ConvergedWithin(3) {
		t.Fatal("cold node's chain diverged after catch-up")
	}
}
