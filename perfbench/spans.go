package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"quorumconf/internal/obs"
)

// maxSpans bounds the spans one traced pass keeps in memory; later spans
// are counted as dropped.
const maxSpans = 200_000

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Trace; Parent is the span that caused this one.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  uint64  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps the traced pass's spans and event counts in memory and
// writes them out when the pass ends. A nil recorder records nothing, so
// untraced passes pay only a nil check.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	next    uint64
	spans   []span
	dropped int
	counts  map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]int64{}}
}

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records the finished span id; trace 0 starts a new trace at id.
func (r *recorder) add(id, parent, trace uint64, name string, begin, end time.Time) {
	if r == nil {
		return
	}
	if trace == 0 {
		trace = id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: begin.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

// Record implements obs.Sink: it counts protocol events by kind. Safe
// for the concurrent emitters of a daemon fleet.
func (r *recorder) Record(e obs.Event) {
	r.mu.Lock()
	r.counts["obs."+e.Kind.String()]++
	r.mu.Unlock()
}

// count returns the number of events of one kind seen so far.
func (r *recorder) count(kind obs.EventKind) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts["obs."+kind.String()]
}

// tracer returns an obs.Tracer feeding the recorder, or nil untraced.
func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return obs.NewTracer(nil, r)
}

// write stores the spans, the event counts, each span name's total self
// time and the CPU profile's layer shares as one JSON document.
func (r *recorder) write(path string, cpuShares map[string]float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := struct {
		Spans        []span             `json:"spans"`
		SpansDropped int                `json:"spans_dropped"`
		SelfSeconds  map[string]float64 `json:"self_seconds"`
		Counts       map[string]int64   `json:"counts"`
		CPUShares    map[string]float64 `json:"cpu_share_pct"`
	}{r.spans, r.dropped, selfTimes(r.spans), r.counts, cpuShares}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}
