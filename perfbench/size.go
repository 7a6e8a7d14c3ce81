package main

import "time"

// sizing scales the workloads. fullSize is what the benchmark measures;
// tinySize keeps every code path but finishes in about a second, for the
// smoke test.
type sizing struct {
	// setupRepeats is how many extra set-ups a pass times before it
	// measures, so the set-up median rests on several samples.
	setupRepeats int
	// mobileNodes and formationNodes are the network sizes of one sim_mobile
	// and one sim_formation scenario.
	mobileNodes, formationNodes int
	// churnRate and churnFor shape sim_churn's churn phase.
	churnRate float64
	churnFor  time.Duration
	// leases is the minimum number of leases daemon_failover's member
	// takes before the load (the seed draws up to twice as many).
	leases int
	// rate is daemon_failover's open-loop arrival rate per second.
	rate float64
	// killAfter is the minimum load time before the kill (the seed draws
	// up to twice as long); loadAfterKill is how long arrivals continue
	// after it; reclaimLimit is how long reclamation may take before the
	// cycle counts it as failed.
	killAfter, loadAfterKill, reclaimLimit time.Duration
	// steadyRate is daemon_steady's open-loop arrival rate per second,
	// steadyFor how long each of its fleets takes that load.
	steadyRate float64
	steadyFor  time.Duration
}

var fullSize = sizing{
	setupRepeats:   8,
	mobileNodes:    100,
	formationNodes: 100,
	churnRate:      80,
	churnFor:       4 * time.Second,
	leases:         20,
	rate:           200,
	killAfter:      300 * time.Millisecond,
	loadAfterKill:  1200 * time.Millisecond,
	reclaimLimit:   5 * time.Second,
	steadyRate:     500,
	steadyFor:      3 * time.Second,
}

var tinySize = sizing{
	setupRepeats:   1,
	mobileNodes:    12,
	formationNodes: 12,
	churnRate:      10,
	churnFor:       time.Second,
	leases:         2,
	rate:           100,
	killAfter:      100 * time.Millisecond,
	loadAfterKill:  900 * time.Millisecond,
	reclaimLimit:   5 * time.Second,
	steadyRate:     100,
	steadyFor:      500 * time.Millisecond,
}
