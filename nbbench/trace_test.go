package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := Span{ID: 1, Start: 100, End: 200}
	kid := func(s, e int64) Span { return Span{Parent: 1, Start: s, End: e} }
	for _, c := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []Span{kid(120, 150)}, 70},
		{"disjoint children", []Span{kid(110, 120), kid(150, 180)}, 60},
		{"overlapping children count once", []Span{kid(110, 160), kid(140, 170)}, 40},
		{"a child inside another", []Span{kid(110, 190), kid(120, 130)}, 20},
		{"touching children", []Span{kid(100, 150), kid(150, 200)}, 0},
		{"children clipped to the parent", []Span{kid(50, 120), kid(180, 260)}, 60},
		{"a child outside the parent", []Span{kid(300, 400)}, 100},
		{"unsorted overlapping children", []Span{kid(170, 190), kid(105, 115), kid(110, 130)}, 55},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer begin = %d, want 0", id)
	}
	off.end(0)

	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				outer := tr.begin("outer", 0, int64(g))
				inner := tr.begin("inner", outer, int64(g))
				tr.end(inner)
				tr.end(outer)
			}
		}(g)
	}
	wg.Wait()
	spans := tr.snapshot()
	if len(spans) != 400 {
		t.Fatalf("%d spans, want 400", len(spans))
	}
	ix := indexSpans(spans)
	for _, o := range ix.byName["outer"] {
		kids := ix.children[o.ID]
		if len(kids) != 1 || kids[0].Input != o.Input || kids[0].Start < o.Start || kids[0].End > o.End {
			t.Fatalf("outer span %+v has children %+v", o, kids)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "insn-table", 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "nbbench-spans/1" || doc.Workload != "insn-table" || doc.Seed != 3 || len(doc.Spans) != 400 {
		t.Fatalf("spans document: schema %q workload %q seed %d, %d spans", doc.Schema, doc.Workload, doc.Seed, len(doc.Spans))
	}
}
