package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// simSpec is one simulator workload: the scenario generated from a seed,
// the core parameters it runs with, and the simulated instants at which
// the radio layer is timed on the run's own topology.
type simSpec struct {
	scenario func(seed int64) workload.Scenario
	params   core.Params
	probes   []time.Duration
}

// simMobile is the paper's regime (Figs 5/13/14): nodes arrive every 2 s
// into 1 km², move by random waypoint at 20 m/s with tr = 150 m, and 30%
// depart (30% of those abruptly), under core defaults.
func simMobile(sz sizing) simSpec {
	formed := time.Duration(sz.mobileNodes) * 2 * time.Second
	return simSpec{
		scenario: func(seed int64) workload.Scenario {
			return workload.Scenario{
				Seed:              seed,
				NumNodes:          sz.mobileNodes,
				Area:              mobility.Rect{Width: 1000, Height: 1000},
				TransmissionRange: 150,
				Speed:             20,
				ArrivalInterval:   2 * time.Second,
				DepartFraction:    0.3,
				AbruptFraction:    0.3,
			}
		},
		probes: []time.Duration{formed / 2, formed, formed + 30*time.Second},
	}
}

// simFormation is the paper's arrival pattern over a static network that
// grows connected: nodes arrive every 2 s, each within 120 m of an earlier
// arrival (tr = 150 m), stay where they land and never leave, under core
// defaults. The network is multi-hop and never splits, so this is address
// configuration alone, without partition merges.
func simFormation(sz sizing) simSpec {
	formed := time.Duration(sz.formationNodes) * 2 * time.Second
	return simSpec{
		scenario: func(seed int64) workload.Scenario {
			return workload.Scenario{
				Seed:              seed,
				NumNodes:          sz.formationNodes,
				Area:              mobility.Rect{Width: 1000, Height: 1000},
				TransmissionRange: 150,
				GrowRadius:        120,
				ArrivalInterval:   2 * time.Second,
			}
		},
		probes: []time.Duration{formed / 4, formed / 2, formed},
	}
}

// simChurn is the sustained-churn hotspot: 20 static nodes in 600 m², then
// 80 joins/s (for 4 s at full size) within 80 m of one spot, each living 3 s on average
// with 20% abrupt exits, under an 8-ballot window with the vote cache on.
func simChurn(sz sizing) simSpec {
	spot := mobility.Point{X: 300, Y: 300}
	formed := 20 * 2 * time.Second
	return simSpec{
		scenario: func(seed int64) workload.Scenario {
			return workload.Scenario{
				Seed:            seed,
				NumNodes:        20,
				Area:            mobility.Rect{Width: 600, Height: 600},
				ArrivalInterval: 2 * time.Second,
				PerHopDelay:     15 * time.Millisecond,
				SettleTime:      6 * time.Second,
				AbruptFraction:  0.2,
				ChurnRate:       sz.churnRate,
				ChurnDuration:   sz.churnFor,
				ChurnLifetime:   3 * time.Second,
				ChurnSpot:       &spot,
				ChurnRadius:     80,
			}
		},
		params: core.Params{
			Space:        addrspace.Block{Lo: 1, Hi: 4096},
			BallotWindow: 8,
			VoteCacheTTL: 30 * time.Second,
		},
		probes: []time.Duration{formed + sz.churnFor/4, formed + sz.churnFor/2, formed + sz.churnFor*3/4},
	}
}

// scenarioRun is the outcome of one simulated scenario.
type scenarioRun struct {
	prepare, wall, horizon time.Duration
	// cpu is the process's CPU time over the Step loop, simCPU that of
	// the simulator thread alone.
	cpu, simCPU           time.Duration
	events                int
	joins                 int
	latencyMS             []float64 // simulator-thread CPU ms from arrival to configuration
	stepUS                []float64 // traced only
	alive, unconfigured   int
	conflicts             map[addrspace.Addr][]radio.NodeID // at the horizon
	persistent            map[addrspace.Addr][]radio.NodeID // still there mergeBound later
	held                  []addrspace.Addr
	space                 addrspace.Block
	coll                  *metrics.Collector
	snapUS, hopUS, degree []float64
}

// runScenario prepares one scenario and drives it Step by Step to its
// horizon. Between Steps it notes, on the simulator thread's CPU clock,
// when each node arrives and when it is first configured. The caller
// locks the goroutine to its OS thread.
func runScenario(spec simSpec, seed int64, rec *recorder) (out *scenarioRun, err error) {
	joins := 0
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, &crash{seed: seed, joins: joins, value: v}
		}
	}()
	root := rec.id()
	sc := spec.scenario(seed)
	sc.Tracer = rec.tracer()
	var proto *core.Protocol
	build := func(rt *protocol.Runtime) (protocol.Protocol, error) {
		p, err := core.New(rt, spec.params)
		proto = p
		return p, err
	}
	t0 := time.Now()
	res, err := workload.Prepare(sc, build)
	if err != nil {
		return nil, fmt.Errorf("prepare seed %d: %w", seed, err)
	}
	t1 := time.Now()
	rec.add(rec.id(), root, root, "workload.Prepare", t0, t1)
	out = &scenarioRun{prepare: t1.Sub(t0), horizon: res.Horizon, space: proto.Params().Space}
	rt := res.RT
	arrived := map[radio.NodeID]time.Duration{}
	next := radio.NodeID(0)
	probes := spec.probes
	u0 := getUsage()
	c0 := threadCPU()
	w0 := time.Now()
	var probeWall, probeCPU time.Duration
	for {
		at, ok := rt.Sim.NextEventAt()
		if !ok || at > res.Horizon {
			break
		}
		if rec != nil {
			for len(probes) > 0 && probes[0] <= at {
				p0, pc := time.Now(), threadCPU()
				out.probeRadio(rt.Topo, probes[0])
				p1 := time.Now()
				probeCPU += threadCPU() - pc
				rec.add(rec.id(), root, root, "radio.probe", p0, p1)
				probeWall += p1.Sub(p0)
				probes = probes[1:]
			}
			s := time.Now()
			rt.Sim.Step()
			out.stepUS = append(out.stepUS, float64(time.Since(s).Nanoseconds())/1e3)
		} else {
			rt.Sim.Step()
		}
		out.events++
		if rt.Topo.Has(next) || len(arrived) > 0 {
			now := time.Duration(-1) // read the clock only when needed
			clock := func() time.Duration {
				if now < 0 {
					now = threadCPU() - probeCPU
				}
				return now
			}
			for ; rt.Topo.Has(next); next++ {
				arrived[next] = clock()
				joins++
			}
			for id, t := range arrived {
				if proto.IsConfigured(id) {
					out.latencyMS = append(out.latencyMS, ms(clock()-t))
					delete(arrived, id)
				} else if !proto.Alive(id) {
					delete(arrived, id) // left before it was configured
				}
			}
		}
	}
	w1 := time.Now()
	out.joins = joins
	out.wall = w1.Sub(w0) - probeWall
	out.simCPU = threadCPU() - c0 - probeCPU
	out.cpu = getUsage().sub(u0).cpu() - probeCPU
	rec.add(rec.id(), root, root, "sim.Step loop", w0, w1)
	out.coll = rt.Coll
	for _, id := range rt.Topo.Nodes() {
		if !proto.Alive(id) {
			continue
		}
		out.alive++
		if ip, ok := proto.IP(id); ok && proto.IsConfigured(id) {
			out.held = append(out.held, ip)
		} else {
			out.unconfigured++
		}
	}
	out.conflicts = proto.AddressConflicts()
	if len(out.conflicts) > 0 {
		if err := rt.Sim.RunUntil(res.Horizon + mergeBound); err != nil {
			return nil, err
		}
		out.persistent = persisting(out.conflicts, proto.AddressConflicts())
	}
	rec.add(root, 0, root, "scenario", t0, time.Now())
	return out, nil
}

// crash is a scenario in which the program panicked. The benchmark
// reports it as a failed, wrong operation and goes on with the next one.
type crash struct {
	seed  int64
	joins int
	value any
}

func (c *crash) Error() string {
	return fmt.Sprintf("scenario seed %d panicked after %d joins: %v", c.seed, c.joins, c.value)
}

// mergeBound is how long core's partition-merge handling may take to
// resolve a duplicate address between two networks that moved into
// contact (§V-C); under mobility such conflicts exist transiently, and
// what the protocol guarantees is that none outlives this bound.
const mergeBound = 60 * time.Second

// persisting returns the conflicts of before that still hold between at
// least two of the same nodes in after.
func persisting(before, after map[addrspace.Addr][]radio.NodeID) map[addrspace.Addr][]radio.NodeID {
	out := map[addrspace.Addr][]radio.NodeID{}
	for a, ids := range before {
		var both []radio.NodeID
		for _, id := range ids {
			for _, later := range after[a] {
				if id == later {
					both = append(both, id)
				}
			}
		}
		if len(both) > 1 {
			out[a] = both
		}
	}
	return out
}

// probeRadio times a fresh Snapshot, then one BFS HopCount on a second
// fresh snapshot (so no memoized distances help), at simulated instant at.
func (r *scenarioRun) probeRadio(topo *radio.Topology, at time.Duration) {
	t := time.Now()
	snap := topo.Snapshot(at)
	r.snapUS = append(r.snapUS, float64(time.Since(t).Nanoseconds())/1e3)
	ids := snap.Nodes()
	if len(ids) < 2 {
		return
	}
	deg := 0
	for _, id := range ids {
		deg += snap.Degree(id)
	}
	r.degree = append(r.degree, float64(deg)/float64(len(ids)))
	fresh := topo.Snapshot(at)
	t = time.Now()
	_, _ = fresh.HopCount(ids[0], ids[len(ids)-1])
	r.hopUS = append(r.hopUS, float64(time.Since(t).Nanoseconds())/1e3)
}

// runSim runs scenarios generated from successive derived seeds until the
// measured time is spent (at least one), then checks and summarizes them.
func runSim(cfg runConfig, spec simSpec) (*result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := newResult()
	var setups []float64
	// Extra set-ups, so the set-up median rests on several samples even
	// when a pass fits only one or two scenarios.
	for k := 0; k < cfg.size.setupRepeats; k++ {
		sc := spec.scenario(splitmix(cfg.seed, -1-k))
		t0 := time.Now()
		if _, err := workload.Prepare(sc, func(rt *protocol.Runtime) (protocol.Protocol, error) {
			return core.New(rt, spec.params)
		}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var runs []*scenarioRun
	deadline := time.Now().Add(cfg.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		// Start each scenario from a collected heap, so the peak resident
		// set is that of one scenario, not of when garbage from earlier
		// ones happened to be collected.
		runtime.GC()
		r, err := runScenario(spec, splitmix(cfg.seed, k), cfg.trace)
		var c *crash
		if errors.As(err, &c) {
			res.checkCrash(c)
			continue
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	var simTime time.Duration
	var latency, walls, cpus, rates, cpuPer, steps, snap, hop, degree, hops []float64
	var firstConfigs, alive, unconfigured int64
	counters := map[string]float64{}
	for _, r := range runs {
		setups = append(setups, r.prepare.Seconds())
		simTime += r.horizon
		rates = append(rates, ratio(float64(len(r.latencyMS)), r.simCPU.Seconds()))
		cpuPer = append(cpuPer, ratio(ms(r.cpu), float64(len(r.latencyMS))))
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		latency = append(latency, r.latencyMS...)
		steps = append(steps, r.stepUS...)
		snap = append(snap, r.snapUS...)
		hop = append(hop, r.hopUS...)
		degree = append(degree, r.degree...)
		hops = append(hops, r.coll.Samples(core.SampleConfigLatency)...)
		firstConfigs += int64(len(r.latencyMS))
		alive += int64(r.alive)
		unconfigured += int64(r.unconfigured)
		res.attempted += r.joins
		for _, c := range metrics.Categories() {
			counters["netstack.msgs."+c.String()] += float64(r.coll.Messages(c))
			counters["netstack.hops."+c.String()] += float64(r.coll.Hops(c))
		}
		for name, key := range map[string]string{
			"core.configured":          core.CounterConfigured,
			"core.ballots_failed":      core.CounterBallotsFailed,
			"core.proposals_rejected":  core.CounterProposalsRejected,
			"core.addresses_reclaimed": core.CounterAddrReclaimed,
		} {
			counters[name] += float64(r.coll.Counter(key))
		}
		counters["sim.events"] += float64(r.events)
		res.checkScenario(r)
	}
	n := float64(len(runs))
	for name, v := range counters {
		res.values[name] = v / n
	}
	for name, kind := range map[string]obs.EventKind{
		"obs.ballot_open":    obs.EvBallotOpen,
		"obs.ballot_abort":   obs.EvBallotAbort,
		"obs.vote_cache_hit": obs.EvVoteCacheHit,
	} {
		res.values[name] = float64(cfg.trace.count(kind)) / n
	}
	res.values["core.ballot_commit_ratio"] = ratio(float64(cfg.trace.count(obs.EvBallotCommit)), float64(cfg.trace.count(obs.EvBallotOpen)))

	v := res.values
	v["setup_s"] = median(setups)
	// Per-scenario medians: a rare scenario that falls into a merge storm
	// costs several times the usual and would swing a pooled ratio.
	v["allocs_per_s"] = median(rates)
	v["cpu_ms_per_alloc"] = median(cpuPer)
	v["alloc_p50_ms"] = quantile(latency, 0.5)
	v["alloc_p99_ms"] = quantile(latency, 0.99)
	v["max_rss_mb"] = getUsage().maxRSSMB

	v["sim.wall_s"] = median(walls)
	v["sim.cpu_s"] = median(cpus)
	v["sim.step_us_p50"] = quantile(steps, 0.5)
	v["sim.step_us_p99"] = quantile(steps, 0.99)
	v["radio.snapshot_us"] = median(snap)
	v["radio.hopcount_us"] = median(hop)
	v["radio.mean_degree"] = median(degree)
	v["config_latency_hops"] = mean(hops)
	v["allocs_per_simsec"] = ratio(float64(firstConfigs), simTime.Seconds())
	v["configured_ratio"] = ratio(float64(alive-unconfigured), float64(alive))
	if cfg.trace != nil && len(runs) > 0 {
		last := runs[len(runs)-1]
		probeTable(v, last.space, last.held)
		probeWire(v, last.space, last.held)
	}
	return res, nil
}

// checkCrash counts a scenario that panicked as one failed, wrong
// operation, after the joins it had seen.
func (r *result) checkCrash(c *crash) {
	r.attempted += max(c.joins, 1)
	r.wrong++
	r.fail(1, "%v", c)
}

// checkScenario counts a scenario's failures: alive nodes left without an
// address at the horizon, and every address two connected nodes hold
// there. A conflict that outlives the merge bound breaks the protocol's
// guarantee and is also counted wrong.
func (r *result) checkScenario(s *scenarioRun) {
	r.fail(s.unconfigured, "%d alive node(s) unconfigured at the %v horizon", s.unconfigured, s.horizon)
	r.fail(len(s.conflicts), "address conflicts at the %v horizon: %v", s.horizon, s.conflicts)
	if n := len(s.persistent); n > 0 {
		r.wrong += n
		r.problems = append(r.problems, fmt.Sprintf("address conflicts persisting %v past the horizon: %v", mergeBound, s.persistent))
	}
}
