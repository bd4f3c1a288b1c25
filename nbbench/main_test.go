package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// restates this program's workloads and metric tables exactly.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "nbbench" || len(doc.Command) == 0 || doc.RunSeconds < 1 {
		t.Errorf("paths %v, command %v, run_seconds %d", doc.Paths, doc.Command, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	for _, tab := range []struct {
		name      string
		json, src []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tab.json) != len(tab.src) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", tab.name, len(tab.json), len(tab.src))
			continue
		}
		for i := range tab.src {
			if tab.json[i] != tab.src[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", tab.name, i, tab.json[i], tab.src[i])
			}
		}
	}
}

// TestWorkloadsSmoke sets up every workload (its warm-up pass included)
// and drives it briefly: at least one more operation, none failing.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.open(ctx, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			rec, err := drive(ctx, inst, 100*time.Millisecond, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rec.attempted == 0 || rec.failed != 0 || rec.work == 0 {
				t.Errorf("attempted %d, failed %d, work %v", rec.attempted, rec.failed, rec.work)
			}
			if len(inst.digest()) != 64 {
				t.Errorf("digest %q", inst.digest())
			}
		})
	}
}

// TestFailuresDoNoWork injects a failure, a cancelled context, into one
// operation of every workload: the operation must count every unit it
// attempted as failed and add no work, so failing fast cannot read as
// throughput.
func TestFailuresDoNoWork(t *testing.T) {
	cfgs, err := buildInsnConfigs()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := newLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	sm := &serveMixed{lb: lb, cfgs: cfgs, std: standardThroughput(cfgs), seed: 1, par: 2,
		hot: make([][]byte, hotSetSize), hotWant: make([][]byte, hotSetSize)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pass := func(p passFunc) func() (outcome, error) {
		return func() (outcome, error) {
			o, _, err := p(ctx, 1, nil, 0)
			return o, err
		}
	}
	rng := passRand(1, 0)
	op := func(f func(context.Context, *rand.Rand, *tracer, int64) (outcome, error)) func() (outcome, error) {
		return func() (outcome, error) { return f(ctx, rng, nil, 1) }
	}
	for _, c := range []struct {
		name string
		run  func() (outcome, error)
	}{
		{"insn-table", pass((&insnTable{cfgs: cfgs, seed: 1, par: 2}).pass)},
		{"policy-campaign", pass((&policyCampaign{seed: 1, par: 2}).pass)},
		{"set-dueling", pass((&setDueling{seed: 1, par: 2}).pass)},
		{"serve-mixed hit", op(sm.hit)},
		{"serve-mixed miss", op(sm.miss)},
		{"serve-mixed job", op(sm.job)},
	} {
		o, err := c.run()
		if err == nil || o.attempted == 0 || o.failed != o.attempted || o.work != 0 {
			t.Errorf("%s: err %v, %d of %d failed, work %v", c.name, err, o.failed, o.attempted, o.work)
		}
	}
}

// TestDigestStableAcrossParallelism checks that the warm-up pass's result
// bytes depend on the seed alone, not on the number of workers.
func TestDigestStableAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"insn-table", "policy-campaign"} {
		w, _ := workloadByName(name)
		var digests []string
		for _, par := range []int{1, 2} {
			inst, err := w.open(ctx, 5, par)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, inst.digest())
			inst.close()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at parallelism 1, %s at 2", name, digests[0], digests[1])
		}
	}
}

// TestTracedRun runs the traced variant briefly: every per-layer metric
// is reported and finite, every check passes, and the spans are written.
func TestTracedRun(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadByName("policy-campaign")
	inst, err := w.open(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	path := filepath.Join(t.TempDir(), "spans.json")
	var rep childReport
	if err := measureTraced(ctx, w, inst, 1, 2, 2*time.Second, path, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("%d of %d checks failed: %v", rep.Failed, rep.Attempted, rep.Lines)
	}
	for _, m := range perLayer {
		v, ok := rep.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (reported %v)", m.Name, v, ok)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}
