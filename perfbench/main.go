// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock time from a seed, checks that the
// program's outputs are correct, and prints every metric by name with its
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the workload runs twice with the same seed — untraced,
// then traced — and the metrics are the per-layer ones from the traced
// pass, plus the tracing overhead between the two passes. The traced pass
// also writes its spans and event counts under --out.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload sim_mobile --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what each means on a
// simulator workload and on a fleet workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"allocs_per_s", "1/s"},
	{"cpu_ms_per_alloc", "ms"},
	{"alloc_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced pass. A
// layer a workload never exercises reports 0.
var perLayer = func() []metric {
	m := []metric{
		// The allocation latency tail. At a few milliseconds it moves with
		// the host's scheduling of the virtual CPUs by more than any bound,
		// so it is a per-layer reading rather than an end-to-end metric.
		{"alloc_p99_ms", "ms"},
		// sim
		{"sim.events", "count"},
		{"sim.step_us_p50", "us"},
		{"sim.step_us_p99", "us"},
		{"sim.wall_s", "s"},
		{"sim.cpu_s", "s"},
		// radio
		{"radio.snapshot_us", "us"},
		{"radio.hopcount_us", "us"},
		{"radio.mean_degree", "count"},
	}
	// netstack
	for _, c := range trafficCategories {
		m = append(m, metric{"netstack.msgs." + c, "count"}, metric{"netstack.hops." + c, "hops"})
	}
	m = append(m,
		// core
		metric{"core.configured", "count"},
		metric{"core.ballots_failed", "count"},
		metric{"core.proposals_rejected", "count"},
		metric{"core.addresses_reclaimed", "count"},
		metric{"obs.ballot_open", "count"},
		metric{"obs.ballot_abort", "count"},
		metric{"obs.vote_cache_hit", "count"},
		metric{"core.ballot_commit_ratio", "ratio"},
		metric{"config_latency_hops", "hops"},
		metric{"allocs_per_simsec", "1/s"},
		metric{"configured_ratio", "ratio"},
		// addrspace
		metric{"addrspace.firstfree_us", "us"},
		metric{"addrspace.occupancy", "count"},
		// wire
		metric{"wire.encode_ns", "ns"},
		metric{"wire.decode_ns", "ns"},
		metric{"wire.replica_frame_bytes", "B"},
		// udptransport
		metric{"udp.data_tx_per_alloc", "count"},
		metric{"udp.ack_tx_per_alloc", "count"},
		metric{"udp.retries_per_alloc", "count"},
		metric{"udp.send_drop", "count"},
		metric{"udp.batch_occupancy_p50", "count"},
		metric{"cpu.sys_ms_per_alloc", "ms"},
		// daemon
		metric{"daemon.config_latency_p50_ms", "ms"},
		metric{"daemon.config_latency_p99_ms", "ms"},
		metric{"daemon.ballot_rtt_p50_ms", "ms"},
		metric{"daemon.ballot_rtt_p99_ms", "ms"},
		metric{"daemon.ballots_per_alloc", "count"},
		metric{"daemon.alloc_fail", "count"},
		metric{"http.overhead_p50_ms", "ms"},
		// health
		metric{"health.detect_s", "s"},
		metric{"daemon.reclaim_p50_s", "s"},
		metric{"reclaim_s", "s"},
	)
	// all layers
	for _, l := range cpuLayers {
		m = append(m, metric{"cpu." + l, "%"})
	}
	return append(m,
		metric{"loadgen.lag_p99_ms", "ms"},
		metric{"trace.overhead_pct", "%"},
	)
}()

// trafficCategories are the metrics.Category names the netstack charges.
var trafficCategories = []string{"config", "movement", "departure", "reclamation", "sync", "hello", "partition"}

// result is what one pass of a workload measured.
type result struct {
	attempted, failed int
	// wrong counts outputs that break the protocol's guarantee: a
	// duplicate or out-of-space grant, or an address conflict.
	wrong  int
	values map[string]float64
	// problems describes each failure found, for standard error.
	problems []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail records n failed operations.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	size    sizing
	// trace, when non-nil, makes the pass a traced one.
	trace *recorder
}

type workloadFunc func(cfg runConfig) (*result, error)

var workloads = map[string]workloadFunc{
	"sim_mobile":      func(c runConfig) (*result, error) { return runSim(c, simMobile(c.size)) },
	"sim_formation":   func(c runConfig) (*result, error) { return runSim(c, simFormation(c.size)) },
	"sim_churn":       func(c runConfig) (*result, error) { return runSim(c, simChurn(c.size)) },
	"daemon_fill":     runFill,
	"daemon_failover": runFailover,
	"daemon_steady":   runSteady,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 30, "wall-clock seconds one pass measures")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from an extra traced pass")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced pass's spans and counts")
	tiny := fs.Bool("tiny", false, "run the workload at a tiny size (smoke testing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), size: fullSize}
	if *tiny {
		cfg.size = tinySize
	}
	res, err := measure(*name, wl, cfg, *trace == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	const shown = 20
	for i, p := range res.problems {
		if i == shown {
			fmt.Fprintf(stderr, "perfbench: %s: ... and %d more failures\n", *name, len(res.problems)-shown)
			break
		}
		fmt.Fprintf(stderr, "perfbench: %s: FAILED %s\n", *name, p)
	}
	metrics := endToEnd
	if *trace == 1 {
		metrics = perLayer
	}
	if err := report(stdout, res, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the untraced pass and, when traced, the traced pass with
// a CPU profile, and folds the layer attribution and overhead into the
// traced result.
func measure(name string, wl workloadFunc, cfg runConfig, traced bool, outDir string, stderr io.Writer) (*result, error) {
	plain, err := wl(cfg)
	if err != nil || !traced {
		return plain, err
	}
	cfg.trace = newRecorder()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	res, err := wl(cfg)
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	for _, l := range cpuLayers {
		res.values["cpu."+l] = shares[l]
	}
	// Overhead compares process CPU per allocation between the passes:
	// wall time is fixed by --seconds and, on the open loop, so is the
	// allocation rate.
	if base := plain.values["cpu_ms_per_alloc"]; base > 0 {
		res.values["trace.overhead_pct"] = (res.values["cpu_ms_per_alloc"]/base - 1) * 100
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := cfg.trace.write(path, shares); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: spans and counts written to %s\n", path)
	return res, nil
}

// report prints each metric on standard output as "name value unit",
// then the JSON result line.
func report(w io.Writer, res *result, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(metrics)),
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload attempted no operation")
	}
	for _, m := range metrics {
		v := res.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
