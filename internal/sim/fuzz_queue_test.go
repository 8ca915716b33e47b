package sim

// Fuzz oracle for the pending-event queue: a byte-driven
// schedule/cancel/drain workload runs on the simulator and on a
// sort-based reference model, and the two execution transcripts must
// match exactly. The reference orders live events by (time, schedule
// order) and leaves canceled ones out, which is the determinism
// contract every experiment table rests on; any heap sift, stale-entry
// or clamp bug shows up as a transcript divergence.

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"
)

// modelEvent is one pending event of the reference model.
type modelEvent struct {
	at  time.Duration
	seq int // schedule order, also the index of its EventID
	op  int // the fuzz op that scheduled it
}

// queueModel is the reference queue: a plain slice sorted by (time,
// schedule order) before every pop.
type queueModel struct {
	now     time.Duration
	ran     int
	pending []modelEvent
	trace   []string
}

func (m *queueModel) schedule(at time.Duration, seq, op int) {
	if at < m.now {
		at = m.now
	}
	m.pending = append(m.pending, modelEvent{at: at, seq: seq, op: op})
}

func (m *queueModel) cancel(seq int) {
	for i, e := range m.pending {
		if e.seq == seq {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// step runs the earliest pending event if it is due by limit.
func (m *queueModel) step(limit time.Duration) bool {
	sort.Slice(m.pending, func(i, j int) bool {
		a, b := m.pending[i], m.pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	if len(m.pending) == 0 || m.pending[0].at > limit {
		return false
	}
	e := m.pending[0]
	m.pending = m.pending[1:]
	m.now = e.at
	m.ran++
	m.trace = append(m.trace, fmt.Sprintf("%d@%v", e.op, m.now))
	return true
}

func (m *queueModel) run(limit int) {
	for n := 0; limit <= 0 || n < limit; n++ {
		if !m.step(math.MaxInt64) {
			return
		}
	}
}

func (m *queueModel) runUntil(t time.Duration) {
	for m.step(t) {
	}
	if m.now < t {
		m.now = t
	}
}

func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 128, 7, 9, 200})
	f.Add([]byte{250, 250, 251, 252, 1, 1, 1, 90, 90, 90, 90, 13, 70, 70, 20, 10})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		s := New(1)
		var trace []string
		var ids []EventID
		m := &queueModel{}
		for i, op := range ops {
			i := i
			switch {
			case op >= 64:
				// Schedule: the byte picks a time; clustered values
				// exercise sequence tie-breaks, and times behind the
				// clock exercise the clamp to now.
				at := time.Duration(op-64) * time.Duration(op%5+1) * time.Millisecond
				m.schedule(at, len(ids), i)
				ids = append(ids, s.At(at, func() {
					trace = append(trace, fmt.Sprintf("%d@%v", i, s.Now()))
				}))
			case op >= 16 && len(ids) > 0:
				k := int(op) % len(ids)
				s.Cancel(ids[k])
				m.cancel(k)
			case op >= 8:
				s.Run(uint64(op % 8))
				m.run(int(op % 8))
			default:
				s.RunUntil(time.Duration(op) * 40 * time.Millisecond)
				m.runUntil(time.Duration(op) * 40 * time.Millisecond)
			}
			if s.Pending() != len(m.pending) {
				t.Fatalf("op %d: Pending() = %d, reference %d", i, s.Pending(), len(m.pending))
			}
		}
		s.Run(0)
		m.run(0)
		trace = append(trace, fmt.Sprintf("ran=%d pending=%d now=%v", s.EventsRun(), s.Pending(), s.Now()))
		m.trace = append(m.trace, fmt.Sprintf("ran=%d pending=%d now=%v", m.ran, len(m.pending), m.now))
		if len(trace) != len(m.trace) {
			t.Fatalf("heap trace has %d entries, reference %d:\nheap %v\nref  %v", len(trace), len(m.trace), trace, m.trace)
		}
		for i := range m.trace {
			if trace[i] != m.trace[i] {
				t.Fatalf("trace[%d]: heap %q, reference %q", i, trace[i], m.trace[i])
			}
		}
	})
}
