package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer's public entry point. Spans stay in memory and are written once,
// when the run ends, as one JSON document:
//
//	{
//	  "schema": "nbbench-spans/1",
//	  "workload": "serve-mixed",
//	  "seed": 1,
//	  "spans": [
//	    {"id": 1, "parent": 0, "name": "net.roundtrip", "input": 7,
//	     "start_ns": 1200, "end_ns": 98000},
//	    ...
//	  ]
//	}
//
// id is 1-based and unique within the run; parent is the id of the span
// that caused this one (0 for a root); name is "<layer>.<call>"; input
// identifies the generated input the call served, shared by every span of
// that input across layers; start_ns and end_ns are offsets from the
// start of the run. A span's self time is its duration minus the part of
// its interval covered by its children (selfTime).

// Span is one recorded call into a layer.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Input  int64  `json:"input"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// dur returns the span's duration in nanoseconds.
func (s Span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay only a nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, to be passed to end and used as
// the parent of the spans it causes.
func (t *tracer) begin(name string, parent, input int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Input: input, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as the documented JSON document at path.
func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{"nbbench-spans/1", workload, seed, t.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime returns p's duration minus the union of its children's
// intervals, each clipped to p's own interval, so overlapping children
// (parallel calls) are not subtracted twice.
func selfTime(p Span, children []Span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered := int64(0)
	for i := 0; i < len(ivs); {
		s, e := ivs[i].s, ivs[i].e
		for i++; i < len(ivs) && ivs[i].s <= e; i++ {
			if ivs[i].e > e {
				e = ivs[i].e
			}
		}
		covered += e - s
	}
	return p.dur() - covered
}

// spanIndex groups a run's spans by name and by parent for the per-layer
// summaries.
type spanIndex struct {
	byName   map[string][]Span
	children map[int64][]Span
}

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{byName: map[string][]Span{}, children: map[int64][]Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of the named spans in the given unit.
func (ix spanIndex) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// byInput returns the durations of the named spans keyed by input id.
func (ix spanIndex) byInput(name string, unit time.Duration) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range ix.byName[name] {
		out[s.Input] = float64(s.dur()) / float64(unit)
	}
	return out
}
