package nanobench

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func openT(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(WithCPU("NoSuchCPU")); err == nil {
		t.Error("expected an error for an unknown CPU model")
	}
	if _, err := Open(WithWarmUp(-2)); err == nil {
		t.Error("expected an error for a negative warm-up count")
	}
	if _, err := Open(WithWarmUp(NoWarmUp)); err != nil {
		t.Errorf("WithWarmUp(NoWarmUp) must be accepted as explicit zero: %v", err)
	}
	s := openT(t)
	if s.CPUName() != "Skylake" || s.Mode() != Kernel || s.Seed() != DefaultBatchSeed {
		t.Errorf("defaults: cpu=%s mode=%v seed=%d", s.CPUName(), s.Mode(), s.Seed())
	}
}

// quickstartConfig is the paper's Section III-A example.
func quickstartConfig() Config {
	return Config{
		Code:        MustAsm("mov R14, [R14]"),
		CodeInit:    MustAsm("mov [R14], R14"),
		WarmUpCount: 1,
		Events:      MustParseEvents("D1.01 MEM_LOAD_RETIRED.L1_HIT"),
	}
}

// TestSessionQuickstart pins the Section III-A quickstart through both
// remaining entry points — Session.Run and a Session-built direct Runner
// (the successor of the removed v1 free functions) — and checks they
// print identical counter values, preserving the contract the v1 shims
// used to carry.
func TestSessionQuickstart(t *testing.T) {
	s := openT(t, WithCPU("Skylake"), WithSeed(42))
	r, err := s.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	runnerRes, err := r.Run(quickstartConfig())
	if err != nil {
		t.Fatal(err)
	}
	sessRes, err := s.Run(context.Background(), quickstartConfig())
	if err != nil {
		t.Fatal(err)
	}

	if !runnerRes.Equal(sessRes) {
		t.Errorf("runner and session results differ:\n%vvs\n%v", runnerRes, sessRes)
	}
	if runnerRes.String() != sessRes.String() {
		t.Errorf("printed output differs:\n%q\nvs\n%q", runnerRes, sessRes)
	}
	if v := sessRes.MustGet("Core cycles"); math.Abs(v-4.0) > 0.1 {
		t.Errorf("L1 latency = %.2f, want 4 (paper III-A)", v)
	}
	if v := sessRes.MustGet("MEM_LOAD_RETIRED.L1_HIT"); math.Abs(v-1.0) > 0.05 {
		t.Errorf("L1 hits = %.2f, want 1", v)
	}
}

// sweepConfigs builds distinct configs (no two dedupe to one evaluation).
func sweepConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			Code:          MustAsm("mov r14, [r14]"),
			CodeInit:      MustAsm("mov [r14], r14"),
			UnrollCount:   20 + i,
			LoopCount:     200,
			NMeasurements: 2,
		}
	}
	return cfgs
}

// TestSessionJSONStableAcrossParallelism is the facade-level golden
// check: MarshalJSON output is byte-identical across parallelism levels
// and across cold/cached runs.
func TestSessionJSONStableAcrossParallelism(t *testing.T) {
	cfgs := sweepConfigs(6)
	marshal := func(res []*Result) []string {
		out := make([]string, len(res))
		for i, r := range res {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}

	s1 := openT(t, WithParallelism(1))
	base, err := s1.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON := marshal(base)

	s8 := openT(t, WithParallelism(8))
	par, err := s8.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range marshal(par) {
		if j != baseJSON[i] {
			t.Errorf("config %d: JSON differs between 1 and 8 workers:\n%s\nvs\n%s", i, baseJSON[i], j)
		}
	}

	// Warm re-run on the same session: served from cache, still identical.
	again, err := s8.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range marshal(again) {
		if j != baseJSON[i] {
			t.Errorf("config %d: cached JSON differs:\n%s\nvs\n%s", i, baseJSON[i], j)
		}
	}
	if hits, _ := s8.CacheStats(); hits == 0 {
		t.Error("warm re-run recorded no cache hits")
	}
}

// TestSessionStreamCancelMidSweep pins the acceptance criteria: a Stream
// consumer that cancels mid-sweep gets the completed prefix in order, a
// closed channel, no leaked worker goroutines, and the session cache
// still holds the completed entries.
func TestSessionStreamCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	s := openT(t, WithParallelism(1))
	// One light config followed by heavy ones, on a single worker: item 0
	// arrives quickly and the remaining work is long enough (seconds in
	// total) that the consumer's cancel always lands mid-sweep — the
	// runner checks the context between measurement runs, so the worker
	// aborts within one run's latency even on a single-core machine.
	cfgs := sweepConfigs(12)
	cfgs[0].LoopCount = 20
	for i := 1; i < len(cfgs); i++ {
		cfgs[i].LoopCount = 1500
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := s.Stream(ctx, cfgs)

	next, completed, aborted := 0, 0, 0
	for it := range ch {
		if it.Index != next {
			t.Fatalf("stream delivered index %d, want %d", it.Index, next)
		}
		next++
		switch {
		case it.Err == nil && it.Result != nil:
			completed++
		case errors.Is(it.Err, context.Canceled):
			aborted++
		default:
			t.Fatalf("item %d: unexpected state (res=%v err=%v)", it.Index, it.Result, it.Err)
		}
		if next == 1 {
			cancel() // cancel after the first delivered result
		}
	}
	// The channel closed (range exited) having delivered every index.
	if next != len(cfgs) {
		t.Fatalf("stream delivered %d of %d items before closing", next, len(cfgs))
	}
	if completed < 1 {
		t.Error("cancellation discarded the completed prefix")
	}
	if aborted < 1 {
		t.Error("no item carried the cancellation error (cancel landed too late to test anything)")
	}
	// The cache kept every completed evaluation.
	if got := s.Cache().Len(); got != completed {
		t.Errorf("cache holds %d entries, want %d completed evaluations", got, completed)
	}

	// No leaked workers: the goroutine count returns to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before stream, %d after drain", before, now)
	}
}

// TestSessionSampleRetention: WithSampleRetention(false) strips the raw
// per-run samples from every evaluated metric while the aggregated
// values match a retaining session's bit for bit, and the two forms
// occupy distinct cache entries (DropSamples is part of the content key).
func TestSessionSampleRetention(t *testing.T) {
	cfg := quickstartConfig()

	full, err := openT(t).Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lean := openT(t, WithSampleRetention(false))
	dropped, err := lean.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	fm, dm := full.Metrics(), dropped.Metrics()
	if len(fm) != len(dm) {
		t.Fatalf("metric count differs: %d vs %d", len(fm), len(dm))
	}
	for i := range fm {
		if dm[i].Value != fm[i].Value {
			t.Errorf("%s: value %v, want %v", dm[i].Name, dm[i].Value, fm[i].Value)
		}
		if len(fm[i].Samples) == 0 {
			t.Errorf("%s: retaining session kept no samples", fm[i].Name)
		}
		if len(dm[i].Samples) != 0 {
			t.Errorf("%s: sample-free session retained %d samples", dm[i].Name, len(dm[i].Samples))
		}
	}

	// A config that sets DropSamples itself drops samples even in a
	// retaining session.
	cfg.DropSamples = true
	own, err := openT(t).Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range own.Metrics() {
		if len(m.Samples) != 0 {
			t.Errorf("%s: per-config DropSamples retained %d samples", m.Name, len(m.Samples))
		}
	}
}

func TestSessionWarmUpDefault(t *testing.T) {
	s := openT(t, WithWarmUp(3))
	jobs := s.jobs([]Config{
		{Code: MustAsm("nop")},                        // inherits the session default
		{Code: MustAsm("nop"), WarmUpCount: 1},        // keeps its own
		{Code: MustAsm("nop"), WarmUpCount: NoWarmUp}, // explicitly zero
	})
	if jobs[0].Cfg.WarmUpCount != 3 {
		t.Errorf("config without warm-up got %d, want the session default 3", jobs[0].Cfg.WarmUpCount)
	}
	if jobs[1].Cfg.WarmUpCount != 1 {
		t.Errorf("config with explicit warm-up got %d, want 1", jobs[1].Cfg.WarmUpCount)
	}
	if got := jobs[2].Cfg.Canonical().WarmUpCount; got != 0 {
		t.Errorf("NoWarmUp canonicalized to %d, want 0 despite the session default", got)
	}
	if jobs[0].CPU != "Skylake" || jobs[0].Mode != Kernel {
		t.Errorf("job wiring: cpu=%s mode=%v", jobs[0].CPU, jobs[0].Mode)
	}
}

func TestSweepBuilder(t *testing.T) {
	sw := NewSweep(Config{WarmUpCount: 2, Aggregate: Avg}).
		Asm("add rax, rbx", "imul rax, rbx").
		Unroll(10, 20, 30)
	if sw.Len() != 6 {
		t.Fatalf("Len = %d, want 6", sw.Len())
	}
	cfgs, err := sw.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Fatalf("Configs = %d, want 6", len(cfgs))
	}
	// Code-major order: the first three share code[0] with unrolls 10/20/30.
	imul := MustAsm("imul rax, rbx")
	for i, cfg := range cfgs {
		wantUnroll := []int{10, 20, 30}[i%3]
		if cfg.UnrollCount != wantUnroll {
			t.Errorf("config %d: unroll %d, want %d", i, cfg.UnrollCount, wantUnroll)
		}
		isImul := string(cfg.Code) == string(imul)
		if isImul != (i >= 3) {
			t.Errorf("config %d: wrong code variant", i)
		}
		if cfg.WarmUpCount != 2 || cfg.Aggregate != Avg {
			t.Errorf("config %d: base fields lost (%+v)", i, cfg)
		}
	}

	// Builder errors are deferred to Configs, and Len agrees (0 configs).
	bad := NewSweep(Config{}).Asm("bogus instruction")
	if _, err := bad.Configs(); err == nil {
		t.Error("expected a deferred assembly error")
	}
	if bad.Len() != 0 {
		t.Errorf("erroneous sweep Len = %d, want 0", bad.Len())
	}
	// An empty sweep (no code anywhere) is rejected, with Len 0.
	empty := NewSweep(Config{}).Unroll(10)
	if _, err := empty.Configs(); err == nil {
		t.Error("expected an error for a sweep without benchmark code")
	}
	if empty.Len() != 0 {
		t.Errorf("codeless sweep Len = %d, want 0", empty.Len())
	}
}

func TestSessionRunSweep(t *testing.T) {
	s := openT(t, WithWarmUp(1))
	sw := NewSweep(Config{}).
		Asm("add rax, rbx", "imul rax, rbx").
		Unroll(50, 100)
	res, err := s.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results for a 2x2 sweep", len(res))
	}
	// ADD chains at 1 cycle, IMUL at 3, independent of the unroll count.
	wants := []float64{1, 1, 3, 3}
	for i, want := range wants {
		if v := res[i].MustGet("Core cycles"); math.Abs(v-want) > 0.1 {
			t.Errorf("sweep config %d: %.2f cycles, want %.0f", i, v, want)
		}
	}
}

func TestSessionSharedAndDisabledCache(t *testing.T) {
	shared := NewBatchCache()
	cfg := Config{Code: MustAsm("nop"), UnrollCount: 10}

	a := openT(t, WithCache(shared))
	if _, err := a.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	b := openT(t, WithCache(shared))
	if _, err := b.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if hits, _ := shared.Stats(); hits == 0 {
		t.Error("second session missed the shared cache")
	}

	// WithCache(nil) disables caching entirely.
	c := openT(t, WithCache(nil))
	if c.Cache() != nil {
		t.Fatal("WithCache(nil) kept a cache")
	}
	if _, err := c.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cacheless session recorded stats: %d hits, %d misses", hits, misses)
	}
}

func TestSessionRunBatchPartialOnCancel(t *testing.T) {
	s := openT(t, WithParallelism(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.RunBatch(ctx, sweepConfigs(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 3 {
		t.Fatalf("cancelled batch returned %d slots, want 3", len(res))
	}
}

// TestRunMatchesOneConfigBatch pins Run, which runs its one config on the
// caller's goroutine, to RunBatch(ctx, []Config{cfg})[0]: on a miss, a
// hit, a failing config and a cancelled context, the result bytes, the
// error text and the session cache's hit and miss counts agree.
func TestRunMatchesOneConfigBatch(t *testing.T) {
	// User mode makes the result depend on the machine seed: timer
	// interrupts land inside this measurement.
	run, batch := openT(t, WithSeed(7), WithMode(User)), openT(t, WithSeed(7), WithMode(User))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Code:          MustAsm("mov r14, [r14]"),
		CodeInit:      MustAsm("mov [r14], r14"),
		UnrollCount:   100,
		LoopCount:     2000,
		NMeasurements: 1,
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, step := range []struct {
		name         string
		ctx          context.Context
		cfg          Config
		hits, misses uint64
	}{
		{"miss", context.Background(), cfg, 0, 1},
		{"hit", context.Background(), cfg, 1, 1},
		{"failing", context.Background(), Config{Code: MustAsm("nop"), LoopCount: -1}, 1, 2},
		{"cancelled", cancelled, cfg, 1, 2},
	} {
		got, gotErr := run.Run(step.ctx, step.cfg)
		res, wantErr := batch.RunBatch(step.ctx, []Config{step.cfg})
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: Run error %q, RunBatch error %q", step.name, errText(gotErr), errText(wantErr))
		}
		if (step.name == "failing" || step.name == "cancelled") && gotErr == nil {
			t.Fatalf("%s: Run returned no error", step.name)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(res[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: Run result %s, RunBatch result %s", step.name, gotJSON, wantJSON)
		}
		rh, rm := run.CacheStats()
		bh, bm := batch.CacheStats()
		if rh != bh || rm != bm || rh != step.hits || rm != step.misses {
			t.Fatalf("%s: Run cache %d hits/%d misses, RunBatch %d/%d; want %d/%d",
				step.name, rh, rm, bh, bm, step.hits, step.misses)
		}
	}
}
