package experiment

import (
	"fmt"
	"strings"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/mobility"
	"quorumconf/internal/netstack"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// TraceEvent is one delivered protocol message of a trace.
type TraceEvent struct {
	At   time.Duration
	Type string
	Src  radio.NodeID
	Dst  radio.NodeID
	Hops int
}

// Table1Trace reproduces the paper's Table 1: the message exchange that
// configures a new cluster head, including the quorum collection with the
// allocator's adjacent heads. It scripts a line topology in which heads
// form at nodes 0, 3 and 6; the returned events are those exchanged while
// node 6 configures.
func Table1Trace() ([]TraceEvent, error) {
	rt, err := protocol.New(protocol.WithSeed(1), protocol.WithTransmissionRange(150))
	if err != nil {
		return nil, err
	}
	p, err := core.New(rt, core.Params{Space: addrspace.Block{Lo: 1, Hi: 64}})
	if err != nil {
		return nil, err
	}
	arrive := func(at time.Duration, id radio.NodeID, x float64) {
		rt.Sim.ScheduleAt(at, func() {
			if err := rt.Topo.Add(id, mobility.Static(mobility.Point{X: x})); err != nil {
				return
			}
			rt.Net.InvalidateSnapshot()
			p.NodeArrived(id)
		})
	}
	for i := 0; i < 6; i++ {
		arrive(time.Duration(i*20)*time.Second, radio.NodeID(i), float64(i)*100)
	}
	var events []TraceEvent
	rt.Sim.ScheduleAt(119*time.Second, func() {
		rt.Net.SetTrace(func(at time.Duration, m netstack.Message) {
			events = append(events, TraceEvent{At: at, Type: m.Type, Src: m.Src, Dst: m.Dst, Hops: m.Hops})
		})
	})
	arrive(120*time.Second, 6, 600)
	if err := rt.Sim.RunUntil(150 * time.Second); err != nil {
		return nil, err
	}
	if p.Role(6) != core.RoleHead {
		return nil, fmt.Errorf("trace scenario failed: node 6 is %v, want head", p.Role(6))
	}
	return events, nil
}

// FormatTrace renders events in the paper's Table 1 style.
func FormatTrace(events []TraceEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# table1 — cluster head configuration message exchange\n")
	fmt.Fprintf(&b, "%12s  %-14s %5s %5s %5s\n", "time", "message", "src", "dst", "hops")
	for _, e := range events {
		fmt.Fprintf(&b, "%12v  %-14s %5d %5d %5d\n", e.At, e.Type, e.Src, e.Dst, e.Hops)
	}
	return b.String()
}
