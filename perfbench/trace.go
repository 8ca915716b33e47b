package main

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// counting is a pass-through Behavior: every hook answers as
// HonestBehavior does and only counts what crosses the runtime seam.
// One instance serves every node of a network; the simulation runs on
// one goroutine, so the counters need no lock.
type counting struct {
	netsim.HonestBehavior
	inbound  map[reflect.Type]int
	outbound int
	produced int
	votes    int
}

func newCounting() *counting { return &counting{inbound: map[reflect.Type]int{}} }

func (c *counting) OnInbound(_, _ sim.NodeID, payload any, _ int) bool {
	c.inbound[reflect.TypeOf(payload)]++
	return true
}

func (c *counting) OnOutbound(_, _ sim.NodeID, _ any, _ int) bool {
	c.outbound++
	return true
}

func (c *counting) OnProduce(_ sim.NodeID, _ any) bool {
	c.produced++
	return true
}

func (c *counting) OnVote(_ sim.NodeID, _ any) bool {
	c.votes++
	return true
}

// knownKinds are the payload types the four networks deliver; each gets
// a netsim.inbound.<kind> metric on every workload, zero where absent.
// A type outside this list is counted under netsim.inbound.other.
var knownKinds = []string{
	"chain.Block",
	"lattice.Block",
	"netsim.blockRequest",
	"netsim.rangeReply",
	"netsim.rangeRequest",
	"orv.Vote",
	"tangle.Vertex",
}

// kindName turns a payload type into a metric-name segment:
// "*orv.Vote" becomes "orv.Vote".
func kindName(t reflect.Type) string {
	if t == nil {
		return "nil"
	}
	return strings.TrimPrefix(fmt.Sprint(t), "*")
}
