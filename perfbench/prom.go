package main

import (
	"context"
	"math"
	"sort"

	"quorumconf/internal/ctl"
	"quorumconf/internal/obs"
)

// scrape reads and parses /v1/metrics from the daemons at the given
// indices; a daemon that does not answer is left out.
func (f *fleet) scrape(idx ...int) []*ctl.PromSnapshot {
	var out []*ctl.PromSnapshot
	for _, i := range idx {
		text, err := f.status[i].Metrics(context.Background())
		if err == nil {
			out = append(out, ctl.ParseProm(text))
		}
	}
	return out
}

// counterDelta sums a counter over the after scrapes minus the before
// scrapes.
func counterDelta(before, after []*ctl.PromSnapshot, name string) float64 {
	d := 0.0
	for _, s := range after {
		d += s.Counter(name)
	}
	for _, s := range before {
		d -= s.Counter(name)
	}
	return d
}

// histDelta merges a histogram family over the after scrapes minus the
// before scrapes, bucket by bucket. quorumd elides empty buckets, so a
// scrape's cumulative count at a bound it did not print is its count at
// the nearest printed bound below.
func histDelta(before, after []*ctl.PromSnapshot, name string) *ctl.PromHistogram {
	var bounds []float64
	seen := map[float64]bool{}
	for _, s := range append(append([]*ctl.PromSnapshot(nil), before...), after...) {
		if h, ok := s.Histogram(name); ok {
			for _, b := range h.Buckets {
				if !seen[b.Le] {
					seen[b.Le] = true
					bounds = append(bounds, b.Le)
				}
			}
		}
	}
	sort.Float64s(bounds)
	cumAt := func(s *ctl.PromSnapshot, le float64) float64 {
		h, ok := s.Histogram(name)
		if !ok {
			return 0
		}
		c := 0.0
		for _, b := range h.Buckets {
			if b.Le <= le {
				c = b.Count
			}
		}
		return c
	}
	out := &ctl.PromHistogram{}
	for _, le := range bounds {
		c := 0.0
		for _, s := range after {
			c += cumAt(s, le)
		}
		for _, s := range before {
			c -= cumAt(s, le)
		}
		out.Buckets = append(out.Buckets, ctl.PromBucket{Le: le, Count: c})
	}
	if n := len(out.Buckets); n > 0 {
		out.Count = out.Buckets[n-1].Count
	}
	return out
}

// histQuantile is h's q-quantile, 0 for an empty histogram.
func histQuantile(h *ctl.PromHistogram, q float64) float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// fleetLayers derives the udptransport, daemon and health per-layer
// metrics from /v1/metrics scraped before and after the load; n is the
// number of allocations the load was granted.
func fleetLayers(v map[string]float64, before, after []*ctl.PromSnapshot, n float64) {
	per := func(counter string) float64 { return ratio(counterDelta(before, after, counter), n) }
	v["udp.data_tx_per_alloc"] = per("quorumd_transport_data_tx")
	v["udp.ack_tx_per_alloc"] = per("quorumd_transport_ack_tx")
	v["udp.retries_per_alloc"] = per("quorumd_transport_retries")
	v["udp.send_drop"] = counterDelta(before, after, "quorumd_transport_send_drop")
	v["daemon.ballots_per_alloc"] = per("quorumd_daemon_ballots")
	v["daemon.alloc_fail"] = counterDelta(before, after, "quorumd_daemon_alloc_fail")
	hist := func(name string) *ctl.PromHistogram { return histDelta(before, after, "quorumd_"+name) }
	v["udp.batch_occupancy_p50"] = histQuantile(hist(obs.HistBatchOccupancy), 0.5)
	cfgLat := hist(obs.HistConfigLatency)
	v["daemon.config_latency_p50_ms"] = histQuantile(cfgLat, 0.5) * 1e3
	v["daemon.config_latency_p99_ms"] = histQuantile(cfgLat, 0.99) * 1e3
	rtt := hist(obs.HistBallotRTT)
	v["daemon.ballot_rtt_p50_ms"] = histQuantile(rtt, 0.5) * 1e3
	v["daemon.ballot_rtt_p99_ms"] = histQuantile(rtt, 0.99) * 1e3
	v["daemon.reclaim_p50_s"] = histQuantile(hist(obs.HistReclaimTime), 0.5)
	v["http.overhead_p50_ms"] = v["alloc_p50_ms"] - v["daemon.config_latency_p50_ms"]
}
