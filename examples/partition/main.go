// Partition: a scripted network partition and merge (§V-C). A cluster
// head and its member drift away from the backbone, operate as their own
// island (the isolated head restarts with the full address space for its
// new network), then return — at which point the network with the larger
// partition ID gives up its addresses and rejoins the other, one node at
// a time, restoring a single conflict-free network.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"
	"time"

	"quorumconf"

	"quorumconf/internal/mobility"
)

func main() {
	rt, err := quorumconf.New(quorumconf.WithSeed(3), quorumconf.WithTransmissionRange(150))
	if err != nil {
		log.Fatal(err)
	}
	p, err := quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
		Space: quorumconf.Block{Lo: 1, Hi: 256},
	})
	if err != nil {
		log.Fatal(err)
	}

	arrive := func(at time.Duration, id quorumconf.NodeID, m mobility.Model) {
		rt.Sim.ScheduleAt(at, func() {
			if err := rt.Topo.Add(id, m); err != nil {
				log.Fatal(err)
			}
			rt.Net.InvalidateSnapshot()
			p.NodeArrived(id)
		})
	}
	static := func(x, y float64) mobility.Model { return mobility.Static(mobility.Point{X: x, Y: y}) }
	// Drift 3km away between t=100s and t=140s, stay until t=320s, return.
	awayAndBack := func(x, y float64) mobility.Model {
		m, err := mobility.NewPath(
			[]time.Duration{100 * time.Second, 140 * time.Second, 320 * time.Second, 360 * time.Second},
			[]mobility.Point{{X: x, Y: y}, {X: x + 3000, Y: y}, {X: x + 3000, Y: y}, {X: x, Y: y}},
		)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	// Backbone: head 0 with commons 1 and 2 relaying toward x=300.
	arrive(0, 0, static(0, 0))
	arrive(20*time.Second, 1, static(100, 0))
	arrive(40*time.Second, 2, static(200, 0))
	// Head 3 and member 4 will drift off together.
	arrive(50*time.Second, 3, awayAndBack(300, 0))
	arrive(70*time.Second, 4, awayAndBack(320, 60))

	report := func(label string) {
		fmt.Printf("%-22s", label)
		for id := quorumconf.NodeID(0); id <= 4; id++ {
			if ip, ok := p.IP(id); ok {
				nid, _ := p.NetworkID(id)
				fmt.Printf("  n%d=%v(net %v)", id, ip, nid)
			} else {
				fmt.Printf("  n%d=<unconfigured>", id)
			}
		}
		fmt.Println()
	}
	checkpoints := []struct {
		at    time.Duration
		label string
	}{
		{90 * time.Second, "formed:"},
		{200 * time.Second, "partitioned:"},
		{300 * time.Second, "island stabilized:"},
		{500 * time.Second, "merged:"},
	}
	for _, cp := range checkpoints {
		cp := cp
		rt.Sim.ScheduleAt(cp.at, func() { report(cp.label) })
	}
	if err := rt.Sim.RunUntil(520 * time.Second); err != nil {
		log.Fatal(err)
	}

	if conflicts := p.AddressConflicts(); len(conflicts) != 0 {
		log.Fatalf("conflicts after merge: %v", conflicts)
	}
	tags := map[quorumconf.NetTag]bool{}
	for id := quorumconf.NodeID(0); id <= 4; id++ {
		if tag, ok := p.NetworkTag(id); ok {
			tags[tag] = true
		}
	}
	fmt.Printf("\nfinal state: %d network(s), no address conflicts\n", len(tags))
	fmt.Printf("isolated restarts: %d, merge rejoins: %d\n",
		res(rt).Counter("isolated_restarts"), res(rt).Counter("merge_rejoins"))
}

func res(rt *quorumconf.Runtime) *quorumconf.Collector { return rt.Coll }
