// Joinwave: the paper's motivating workload for address borrowing (§V-A)
// — a crowd of nodes enters the network at the same spot, exhausting the
// local cluster head's IPSpace. With partial replication the head keeps
// serving from its QuorumSpace (the replicas of its adjacent heads'
// blocks); without it, the head can only relay through its configurer.
//
// The example first grows a backbone whose block splits leave each head
// with a small IPSpace, then fires a 30-node wave at one head, with
// borrowing on and off.
//
//	go run ./examples/joinwave
package main

import (
	"fmt"
	"log"
	"time"

	"quorumconf"

	"quorumconf/internal/mobility"
)

func run(borrowing bool) {
	rt, err := quorumconf.New(quorumconf.WithSeed(7), quorumconf.WithTransmissionRange(150))
	if err != nil {
		log.Fatal(err)
	}
	p, err := quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
		// 64 addresses split across the backbone heads: the wave's target
		// head ends up with a block far smaller than the wave.
		Space:            quorumconf.Block{Lo: 1, Hi: 64},
		DisableBorrowing: !borrowing,
	})
	if err != nil {
		log.Fatal(err)
	}
	arrive := func(at time.Duration, id quorumconf.NodeID, x, y float64) {
		rt.Sim.ScheduleAt(at, func() {
			if err := rt.Topo.Add(id, mobility.Static(mobility.Point{X: x, Y: y})); err != nil {
				log.Fatal(err)
			}
			rt.Net.InvalidateSnapshot()
			p.NodeArrived(id)
		})
	}

	// Phase 1: a backbone line. Heads form every ~3 hops and each split
	// halves the available block: 64 -> 32 -> 16 -> 8.
	for i := 0; i < 10; i++ {
		arrive(time.Duration(i*10)*time.Second, quorumconf.NodeID(i), float64(i)*100, 0)
	}
	// Phase 2: a 30-node wave around the LAST head's position (x=900),
	// whose block is the smallest.
	rng := rt.Sim.Rand()
	for i := 0; i < 30; i++ {
		id := quorumconf.NodeID(100 + i)
		x := 850 + rng.Float64()*120
		y := -80 + rng.Float64()*160
		arrive(120*time.Second+time.Duration(i)*2*time.Second, id, x, y)
	}
	if err := rt.Sim.RunUntil(400 * time.Second); err != nil {
		log.Fatal(err)
	}

	wave := 0
	for i := 0; i < 30; i++ {
		if p.IsConfigured(quorumconf.NodeID(100 + i)) {
			wave++
		}
	}
	if len(p.AddressConflicts()) != 0 {
		log.Fatal("address conflicts detected")
	}
	fmt.Printf("borrowing=%-5v wave configured %2d/30, borrowed=%2d, agent relays=%d, nacks=%d\n",
		borrowing, wave,
		rt.Coll.Counter("borrowed"), rt.Coll.Counter("agent_forwards"),
		rt.Coll.Counter("config_nacks"))
}

func main() {
	run(true)
	run(false)
	fmt.Println("\nPartial replication extends the loaded head's usable space with")
	fmt.Println("its neighbors' replicas, so the same wave configures faster and")
	fmt.Println("without relaying every request to the configurer.")
}
