package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/ctl"
	"quorumconf/internal/daemon"
	"quorumconf/internal/radio"
)

// fleetSpace is a /16: 65,534 usable addresses.
var fleetSpace = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A00FFFE}

// clients is the number of client goroutines, each with its own HTTP
// connections, that put load on a fleet.
const clients = 2

// fleet is an in-process quorumd fleet on loopback: daemon 1 bootstraps
// and owns the space, the others join through it.
type fleet struct {
	ds     []*daemon.Daemon
	status []*ctl.Client // one per daemon, for status and metrics polls
	ips    []addrspace.Addr
	hcs    []*http.Client // the load's HTTP clients
}

// startFleet starts n daemons one after another, meshing their peers as
// it goes, and returns once every daemon reports joined.
func startFleet(n int, seed int64, tune func(*daemon.Config), rec *recorder) (*fleet, time.Duration, error) {
	root := rec.id()
	t0 := time.Now()
	f := &fleet{}
	for i := 0; i < n; i++ {
		cfg := daemon.Config{
			ID:         radio.NodeID(i + 1),
			Space:      fleetSpace,
			Bootstrap:  i == 0,
			Listen:     "127.0.0.1:0",
			HTTPListen: "127.0.0.1:0",
			Nonce:      uint32(splitmix(seed, i)) | 1,
			Tracer:     rec.tracer(),
		}
		if i > 0 {
			cfg.Seeds = []radio.NodeID{1}
		}
		if tune != nil {
			tune(&cfg)
		}
		d, err := daemon.New(cfg)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		if err := d.Start(); err != nil {
			f.stop()
			return nil, 0, err
		}
		// Like quorumd, each daemon learns its peers right after it starts;
		// a joiner whose first request beats this retries after JoinRetry.
		for _, p := range f.ds {
			if err := d.AddPeer(p.ID(), p.UDPAddr().String()); err != nil {
				f.stop()
				return nil, 0, err
			}
			if err := p.AddPeer(d.ID(), d.UDPAddr().String()); err != nil {
				f.stop()
				return nil, 0, err
			}
		}
		f.ds = append(f.ds, d)
		f.status = append(f.status, ctl.New(d.HTTPAddr(), ctl.WithTimeout(2*time.Second)))
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range f.status {
		for {
			st, err := c.Status(context.Background())
			if err == nil && st.Joined {
				ip, err := addrspace.Parse(st.IP)
				if err != nil {
					f.stop()
					return nil, 0, fmt.Errorf("daemon %d status ip %q: %w", st.ID, st.IP, err)
				}
				f.ips = append(f.ips, ip)
				break
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, 0, errors.New("fleet did not join within 10s")
			}
			runtime.Gosched() // poll without sleeping: a sleep would round set-up time up to its period
		}
	}
	setup := time.Since(t0)
	rec.add(root, 0, 0, "fleet.setup", t0, t0.Add(setup))
	return f, setup, nil
}

// stop kills every daemon, concurrently, waits for all of them, and
// closes the load's idle connections.
func (f *fleet) stop() {
	for _, hc := range f.hcs {
		hc.CloseIdleConnections()
	}
	var wg sync.WaitGroup
	for _, d := range f.ds {
		wg.Add(1)
		go func(d *daemon.Daemon) {
			defer wg.Done()
			d.Kill()
		}(d)
	}
	wg.Wait()
}

// loadClients returns one set of per-daemon API clients for each client
// goroutine, each set on its own HTTP transport with one connection per
// daemon, so the load uses at most `clients` connections to a daemon.
func (f *fleet) loadClients() [][]*ctl.Client {
	out := make([][]*ctl.Client, clients)
	for w := range out {
		hc := &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		f.hcs = append(f.hcs, hc)
		for _, d := range f.ds {
			out[w] = append(out[w], ctl.New(d.HTTPAddr(), ctl.WithHTTPClient(hc), ctl.WithRetries(0)))
		}
	}
	return out
}

// call is one timed /v1/allocate.
type call struct {
	latency time.Duration // from when the request was due
	lag     time.Duration // how late it was sent
	grant   grant
	err     error
}

// allocate issues one /v1/allocate on c, due at due.
func allocate(c *ctl.Client, due time.Time, rec *recorder) call {
	sent := time.Now()
	resp, err := c.Allocate(context.Background(), 0)
	done := time.Now()
	id := rec.id()
	rec.add(id, 0, id, "ctl.Allocate", sent, done)
	out := call{latency: done.Sub(due), lag: sent.Sub(due), err: err}
	if err == nil {
		out.grant = grant{addr: addrspace.Addr(resp.Value), at: done}
	}
	return out
}

// tally folds calls into the result: attempts, failures, latencies and
// grants.
type tally struct {
	latMS, lagMS []float64
	grants       []grant
}

func (t *tally) add(r *result, calls []call) {
	for _, c := range calls {
		r.attempted++
		t.latMS = append(t.latMS, ms(c.latency))
		t.lagMS = append(t.lagMS, ms(c.lag))
		if c.err != nil {
			r.fail(1, "allocate: %v", c.err)
			continue
		}
		t.grants = append(t.grants, c.grant)
	}
}

func sortGrants(g []grant) {
	sort.Slice(g, func(i, j int) bool { return g[i].at.Before(g[j].at) })
}

// extraSetups starts and stops k fleets, timing each set-up, so the
// set-up median of a pass rests on several samples.
func extraSetups(k int, seed int64, tune func(*daemon.Config)) ([]float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		f, setup, err := startFleet(3, splitmix(seed, 1000+i), tune, nil)
		if err != nil {
			return nil, err
		}
		f.stop()
		out = append(out, setup.Seconds())
	}
	return out, nil
}

// runFill is daemon_fill: one fresh 3-daemon fleet over a /16 at default
// timings, driven for the measured time by two closed-loop clients that
// call /v1/allocate round-robin on all three daemons, so owner-local and
// member-forwarded allocations mix. The fleet's occupancy grows with the
// run length.
func runFill(cfg runConfig) (*result, error) {
	res := newResult()
	setups, err := extraSetups(cfg.size.setupRepeats, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	f, setup, err := startFleet(3, cfg.seed, nil, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	setups = append(setups, setup.Seconds())
	var before []*ctl.PromSnapshot
	if cfg.trace != nil {
		before = f.scrape(0, 1, 2)
	}
	load := f.loadClients()

	u0 := getUsage()
	t0 := time.Now()
	deadline := t0.Add(cfg.seconds)
	perClient := make([][]call, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j == 0 || time.Now().Before(deadline); j++ {
				c := load[w][(w+j)%len(load[w])]
				perClient[w] = append(perClient[w], allocate(c, time.Now(), cfg.trace))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	used := getUsage().sub(u0)

	var t tally
	for _, calls := range perClient {
		t.add(res, calls)
	}
	sortGrants(t.grants)
	res.checkGrants(fleetSpace, f.ips, t.grants, nil, time.Time{})
	n := float64(len(t.grants))
	v := res.values
	v["setup_s"] = median(setups)
	v["allocs_per_s"] = n / elapsed.Seconds()
	v["cpu_ms_per_alloc"] = ratio(ms(used.cpu()), n)
	v["alloc_p50_ms"] = quantile(t.latMS, 0.5)
	v["alloc_p99_ms"] = quantile(t.latMS, 0.99)
	v["max_rss_mb"] = getUsage().maxRSSMB
	v["cpu.sys_ms_per_alloc"] = ratio(ms(used.sys), n)
	v["addrspace.occupancy"] = float64(len(t.grants) + len(f.ips))
	if cfg.trace != nil {
		fleetLayers(v, before, f.scrape(0, 1, 2), n)
		held := append(append([]addrspace.Addr(nil), f.ips...), addrsOf(t.grants)...)
		probeTable(v, fleetSpace, held)
		probeWire(v, fleetSpace, held)
	}
	return res, nil
}

func addrsOf(g []grant) []addrspace.Addr {
	out := make([]addrspace.Addr, len(g))
	for i, x := range g {
		out[i] = x.addr
	}
	return out
}

// failoverTimings is the daemon_failover fleet: a 100 ms heartbeat and a
// 300 ms reclaim settle, so one pass fits several kill-and-reclaim
// cycles.
func failoverTimings(c *daemon.Config) {
	c.HeartbeatInterval = 100 * time.Millisecond
	c.ReclaimSettle = 300 * time.Millisecond
}

// runFailover is daemon_failover: cycles of a fresh 3-daemon fleet in
// which member 3 first takes leases, then one open-loop generator sends
// Poisson arrivals at the configured rate to the two survivors while
// member 3 is killed mid-run; each cycle ends once the owner has
// reclaimed everything member 3 held.
func runFailover(cfg runConfig) (*result, error) {
	return runCycles(cfg, failoverTimings, failoverCycle)
}

// runSteady is daemon_steady: cycles of a fresh 3-daemon fleet at default
// timings, each driven for a few seconds by one open-loop generator that
// sends Poisson arrivals round-robin to all three daemons, so owner-local
// and member-forwarded allocations mix at a load well below saturation.
func runSteady(cfg runConfig) (*result, error) {
	return runCycles(cfg, nil, steadyCycle)
}

// runCycles runs fresh-fleet cycles until the measured time is spent (at
// least one), then summarizes them.
func runCycles(cfg runConfig, tune func(*daemon.Config), one func(runConfig, int64, *result) (*cycle, error)) (*result, error) {
	res := newResult()
	setups, err := extraSetups(cfg.size.setupRepeats, cfg.seed, tune)
	if err != nil {
		return nil, err
	}
	var (
		t                 tally
		loadTime          time.Duration
		used              usage
		detects, reclaims []float64
		cpuPer            []float64
		before, after     []*ctl.PromSnapshot
		lastHeld          []addrspace.Addr
	)
	deadline := time.Now().Add(cfg.seconds)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		runtime.GC() // as between sim scenarios: the peak resident set of one fleet
		c, err := one(cfg, splitmix(cfg.seed, cycle), res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		t.latMS = append(t.latMS, c.tally.latMS...)
		t.lagMS = append(t.lagMS, c.tally.lagMS...)
		t.grants = append(t.grants, c.tally.grants...)
		loadTime += c.loadTime
		used.user += c.used.user
		used.sys += c.used.sys
		cpuPer = append(cpuPer, ratio(ms(c.used.cpu()), float64(len(c.tally.grants))))
		if c.detect > 0 {
			detects = append(detects, c.detect.Seconds())
		}
		if c.reclaim > 0 {
			reclaims = append(reclaims, c.reclaim.Seconds())
		}
		before = append(before, c.before...)
		after = append(after, c.after...)
		lastHeld = c.held
	}
	n := float64(len(t.grants))
	v := res.values
	v["setup_s"] = median(setups)
	v["allocs_per_s"] = n / loadTime.Seconds()
	// Per-cycle median, as for sim scenarios: one slow cycle (a long
	// reclaim, a late join) would swing a pooled ratio.
	v["cpu_ms_per_alloc"] = median(cpuPer)
	v["alloc_p50_ms"] = quantile(t.latMS, 0.5)
	v["alloc_p99_ms"] = quantile(t.latMS, 0.99)
	v["max_rss_mb"] = getUsage().maxRSSMB
	v["cpu.sys_ms_per_alloc"] = ratio(ms(used.sys), n)
	v["loadgen.lag_p99_ms"] = quantile(t.lagMS, 0.99)
	v["health.detect_s"] = median(detects)
	v["reclaim_s"] = median(reclaims)
	v["addrspace.occupancy"] = float64(len(lastHeld))
	if cfg.trace != nil {
		fleetLayers(v, before, after, n)
		probeTable(v, fleetSpace, lastHeld)
		probeWire(v, fleetSpace, lastHeld)
	}
	return res, nil
}

// cycle is what one fleet cycle measured.
type cycle struct {
	setup, loadTime, detect, reclaim time.Duration
	used                             usage
	tally                            tally
	before, after                    []*ctl.PromSnapshot
	held                             []addrspace.Addr
}

// failoverCycle runs one fleet through leases, open-loop load, the kill
// of member 3 and its reclamation, and checks the cycle's grants.
func failoverCycle(cfg runConfig, seed int64, res *result) (*cycle, error) {
	rng := rand.New(rand.NewSource(seed))
	f, setup, err := startFleet(3, seed, failoverTimings, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	out := &cycle{setup: setup}
	const victim = 2 // index of daemon 3, the member that takes leases
	load := f.loadClients()

	// Member 3 takes its leases before the load starts.
	var leaseCalls []call
	for i, n := 0, cfg.size.leases+rng.Intn(cfg.size.leases+1); i < n; i++ {
		leaseCalls = append(leaseCalls, allocate(load[0][victim], time.Now(), cfg.trace))
	}
	var leases tally
	leases.add(res, leaseCalls)

	survivors := []int{0, 1}
	if cfg.trace != nil {
		out.before = f.scrape(survivors...)
	}
	// The arrival schedule: Poisson at the configured rate, the kill at a
	// seeded instant a little into the load. Arrival i goes to survivor
	// i%2 and is sent by client goroutine i%clients.
	killAfter := cfg.size.killAfter + time.Duration(rng.Int63n(int64(cfg.size.killAfter)))
	offsets := poisson(rng, cfg.size.rate, killAfter+cfg.size.loadAfterKill)

	u0 := getUsage()
	t0 := time.Now()
	wait := openLoop(load, survivors, offsets, t0, cfg.trace)

	time.Sleep(time.Until(t0.Add(killAfter)))
	killed := time.Now()
	f.ds[victim].Kill()
	rec := cfg.trace
	rec.add(rec.id(), 0, 0, "daemon.Kill", killed, time.Now())
	victimID := int(f.ds[victim].ID())
	res.attempted++ // the reclamation is one operation
	waitFrom := time.Now()
	// The owner's failure detector first marks the member dead (its
	// member list says so); reclamation then frees what it held and
	// drops it from the electorate.
	for out.reclaim == 0 {
		if time.Since(killed) > cfg.size.reclaimLimit {
			res.fail(1, "member %d not reclaimed %v after its kill", victimID, cfg.size.reclaimLimit)
			break
		}
		time.Sleep(10 * time.Millisecond)
		if out.detect == 0 {
			if m, err := f.status[0].Members(context.Background()); err == nil && memberDead(m, victimID) {
				out.detect = time.Since(killed)
			}
			continue
		}
		st, err := f.status[0].Status(context.Background())
		if err == nil && !slices.Contains(st.Electorate, victimID) && !holdsAny(st.Holders, victimID) {
			out.reclaim = time.Since(killed)
		}
	}
	rec.add(rec.id(), 0, 0, "reclaim.wait", waitFrom, time.Now())
	perClient := wait()
	out.loadTime = time.Since(t0)
	out.used = getUsage().sub(u0)
	if cfg.trace != nil {
		out.after = f.scrape(survivors...)
	}

	for _, calls := range perClient {
		out.tally.add(res, calls)
	}
	all := append(append([]grant(nil), leases.grants...), out.tally.grants...)
	sortGrants(all)
	released := append(addrsOf(leases.grants), f.ips[victim])
	res.checkGrants(fleetSpace, f.ips, all, released, killed)
	out.held = append([]addrspace.Addr{f.ips[0], f.ips[1]}, addrsOf(out.tally.grants)...)
	return out, nil
}

// steadyCycle runs one fleet through open-loop load at the steady rate
// and checks its grants.
func steadyCycle(cfg runConfig, seed int64, res *result) (*cycle, error) {
	rng := rand.New(rand.NewSource(seed))
	f, setup, err := startFleet(3, seed, nil, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	out := &cycle{setup: setup}
	load := f.loadClients()
	all := []int{0, 1, 2}
	if cfg.trace != nil {
		out.before = f.scrape(all...)
	}
	offsets := poisson(rng, cfg.size.steadyRate, cfg.size.steadyFor)

	u0 := getUsage()
	t0 := time.Now()
	perClient := openLoop(load, all, offsets, t0, cfg.trace)()
	out.loadTime = time.Since(t0)
	out.used = getUsage().sub(u0)
	if cfg.trace != nil {
		out.after = f.scrape(all...)
	}

	for _, calls := range perClient {
		out.tally.add(res, calls)
	}
	sortGrants(out.tally.grants)
	res.checkGrants(fleetSpace, f.ips, out.tally.grants, nil, time.Time{})
	out.held = append(append([]addrspace.Addr(nil), f.ips...), addrsOf(out.tally.grants)...)
	return out, nil
}

// poisson returns the send offsets of Poisson arrivals at rate per
// second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at < d; at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		out = append(out, at)
	}
	return out
}

// openLoop starts the open-loop generator: arrival i, due at
// t0+offsets[i], goes to daemon targets[i%len(targets)] and is sent by
// client goroutine i%clients. The returned function waits for every
// call and returns them per client.
func openLoop(load [][]*ctl.Client, targets []int, offsets []time.Duration, t0 time.Time, rec *recorder) func() [][]call {
	perClient := make([][]call, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(offsets); i += clients {
				due := t0.Add(offsets[i])
				time.Sleep(time.Until(due))
				perClient[w] = append(perClient[w], allocate(load[w][targets[i%len(targets)]], due, rec))
			}
		}(w)
	}
	return func() [][]call {
		wg.Wait()
		return perClient
	}
}

func memberDead(m daemon.MembersResponse, id int) bool {
	for _, x := range m.Members {
		if x.Node == id {
			return x.Dead
		}
	}
	return false
}

func holdsAny(holders map[string]int, id int) bool {
	for _, h := range holders {
		if h == id {
			return true
		}
	}
	return false
}
