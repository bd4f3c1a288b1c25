package nanobench

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// collectItems drains a stream into an index-ordered slice, requiring
// in-order delivery.
func collectItems(t *testing.T, ch <-chan BatchItem, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, 0, n)
	for it := range ch {
		if it.Index != len(items) {
			t.Fatalf("item delivered out of order: index %d at position %d", it.Index, len(items))
		}
		items = append(items, it)
	}
	if len(items) != n {
		t.Fatalf("stream delivered %d items, want %d", len(items), n)
	}
	return items
}

// TestStreamShardedMatchesStream pins the shard-merge determinism claim
// at the session level: StreamSharded is byte-identical to Stream at any
// shard count, including configs whose duplicates span shard boundaries
// (the global-dedupe-before-sharding invariant — each duplicate must be
// seeded by the lowest index sharing its content, exactly as a single
// whole-batch run seeds it).
func TestStreamShardedMatchesStream(t *testing.T) {
	distinct := sweepConfigs(6)
	// Interleave duplicates so every contiguous shard split separates at
	// least one duplicate pair from its representative.
	cfgs := []Config{
		distinct[0], distinct[1], distinct[2], distinct[0],
		distinct[3], distinct[1], distinct[4], distinct[5],
		distinct[2], distinct[0],
	}

	baseline := openT(t, WithCPU("Skylake"), WithSeed(42))
	want := collectItems(t, baseline.Stream(context.Background(), cfgs), len(cfgs))
	wantJSON := make([]string, len(want))
	for i, it := range want {
		if it.Err != nil {
			t.Fatalf("baseline item %d failed: %v", i, it.Err)
		}
		data, err := json.Marshal(it.Result)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON[i] = string(data)
	}

	for _, shards := range []int{1, 2, 3, 4, 7, 100} {
		// A fresh session per shard count: no cross-run cache assists.
		sess := openT(t, WithCPU("Skylake"), WithSeed(42))
		got := collectItems(t, sess.StreamSharded(context.Background(), cfgs, shards), len(cfgs))
		for i, it := range got {
			if it.Err != nil {
				t.Fatalf("shards=%d: item %d failed: %v", shards, i, it.Err)
			}
			data, err := json.Marshal(it.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != wantJSON[i] {
				t.Errorf("shards=%d: item %d differs from unsharded Stream:\nsharded:   %s\nunsharded: %s",
					shards, i, data, wantJSON[i])
			}
		}
	}
}

// TestStreamShardedFailuresMatchStream: a failing config's item carries
// the same error text through StreamSharded as through Stream, which
// names the config's batch index, so an asynchronous sweep job reports
// the failure exactly as the synchronous sweep does.
func TestStreamShardedFailuresMatchStream(t *testing.T) {
	cfgs := append(sweepConfigs(4), Config{Code: MustAsm("mov rax, [0]")})
	errTexts := func(items []BatchItem) []string {
		out := make([]string, len(items))
		for i, it := range items {
			if it.Err != nil {
				out[i] = it.Err.Error()
			}
		}
		return out
	}
	sess := openT(t, WithCPU("Skylake"), WithSeed(42), WithMode(User))
	want := errTexts(collectItems(t, sess.Stream(context.Background(), cfgs), len(cfgs)))
	if want[len(cfgs)-1] == "" {
		t.Fatal("the faulting config did not fail")
	}
	for _, shards := range []int{2, 3} {
		got := errTexts(collectItems(t, sess.StreamSharded(context.Background(), cfgs, shards), len(cfgs)))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: item errors\n%q\nwant (Stream)\n%q", shards, got, want)
		}
	}
}

func TestStreamShardedCancel(t *testing.T) {
	sess := openT(t, WithCPU("Skylake"), WithSeed(42), WithParallelism(1))
	cfgs := sweepConfigs(8)
	for i := range cfgs {
		cfgs[i].LoopCount = 1500 + i // seconds of simulated work per config
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := sess.StreamSharded(ctx, cfgs, 3)
	cancel()
	// The channel must close promptly, every undelivered config carrying
	// the context's error.
	n := 0
	for it := range ch {
		n++
		if it.Err == nil && it.Result == nil {
			t.Errorf("item %d has neither result nor error", it.Index)
		}
	}
	if n != len(cfgs) {
		t.Errorf("canceled stream delivered %d items, want all %d", n, len(cfgs))
	}
}

func TestSweepHeterogeneousJobs(t *testing.T) {
	sw := NewSweep(Config{NMeasurements: 2}).
		CPUs("Skylake", "Haswell").
		Modes(Kernel, User).
		Asm("add rax, rbx").
		Unroll(10, 100)

	if !sw.Heterogeneous() {
		t.Fatal("CPU/mode sweep not reported heterogeneous")
	}
	if n := sw.Len(); n != 8 {
		t.Fatalf("Len = %d, want 2 CPUs x 2 modes x 2 unrolls", n)
	}
	// Bare-config expansion refuses heterogeneous sweeps.
	if _, err := sw.Configs(); err == nil {
		t.Error("Configs accepted a heterogeneous sweep")
	}

	jobs, err := sw.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("Jobs expanded %d entries, want 8", len(jobs))
	}
	// CPU-major, then mode, then the inner config order.
	wantCPU := []string{"Skylake", "Skylake", "Skylake", "Skylake", "Haswell", "Haswell", "Haswell", "Haswell"}
	wantMode := []Mode{Kernel, Kernel, User, User, Kernel, Kernel, User, User}
	wantUnroll := []int{10, 100, 10, 100, 10, 100, 10, 100}
	for i, j := range jobs {
		if j.CPU != wantCPU[i] || j.Mode != wantMode[i] || j.Cfg.UnrollCount != wantUnroll[i] {
			t.Errorf("job %d = (%s, %v, unroll %d), want (%s, %v, unroll %d)",
				i, j.CPU, j.Mode, j.Cfg.UnrollCount, wantCPU[i], wantMode[i], wantUnroll[i])
		}
		if j.Cfg.NMeasurements != 2 {
			t.Errorf("job %d lost the base config (n_measurements %d)", i, j.Cfg.NMeasurements)
		}
	}
}

func TestSweepJobsDefaults(t *testing.T) {
	// A homogeneous sweep expands under the given defaults — and an empty
	// default CPU is preserved verbatim for layers that resolve their own
	// default (the server's session registry).
	sw := NewSweep(Config{}).Asm("add rax, rbx").Unroll(10, 100)
	jobs, err := sw.Jobs("", User)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2", len(jobs))
	}
	for i, j := range jobs {
		if j.CPU != "" || j.Mode != User {
			t.Errorf("job %d = (%q, %v), want defaults preserved", i, j.CPU, j.Mode)
		}
	}

	cfgs, err := sw.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(jobs) {
		t.Fatalf("Configs and Jobs disagree on the family size: %d vs %d", len(cfgs), len(jobs))
	}
	for i := range cfgs {
		if !reflect.DeepEqual(cfgs[i], jobs[i].Cfg) {
			t.Errorf("config %d: Jobs and Configs expansions differ:\n%+v\n%+v", i, jobs[i].Cfg, cfgs[i])
		}
	}
}

func TestSweepCPUsModesJSONRoundTrip(t *testing.T) {
	sw := NewSweep(Config{WarmUpCount: 1}).
		CPUs("Skylake", "Haswell").
		Modes(User, Kernel).
		Asm("add rax, rbx").
		Unroll(10, 100)

	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	// The wire form carries the dimensions under their documented keys.
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["cpus"]; !ok {
		t.Errorf("wire form has no cpus key: %s", data)
	}
	if string(wire["modes"]) != `["user","kernel"]` {
		t.Errorf("modes wire form = %s", wire["modes"])
	}

	var back Sweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal(%s): %v", data, err)
	}
	want, err := sw.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("job families differ after round trip\nwant: %+v\ngot:  %+v", want, got)
	}
	if back.Len() != sw.Len() {
		t.Errorf("Len: got %d, want %d", back.Len(), sw.Len())
	}

	// An unknown mode name is a decode-time error, like Config's decoder.
	if err := json.Unmarshal([]byte(`{"modes":["hypervisor"],"asm":["nop"]}`), &back); err == nil {
		t.Error("unknown mode name decoded without error")
	}
}
