package cache_test

import (
	"math/rand"
	"testing"

	"nanobench/internal/sim/cache"
	"nanobench/internal/sim/policy"
	"nanobench/internal/uarch"
)

// Replay plans must be invisible: a hierarchy that replays traces from
// recorded plans reports the same hits and ends in the same effective
// state as one that walks every operation. These tests build both from
// every catalog model and compare them after every replay.

// planModels is every catalog model: the Table I CPUs plus Zen.
func planModels() []uarch.CPU { return append(uarch.Table1(), uarch.Zen()) }

// planHierarchy builds cpu's hierarchy with the prefetcher off (Replay
// refuses to run with it on), and returns its L3 selection counter, nil
// for models without an adaptive L3.
func planHierarchy(t testing.TB, cpu uarch.CPU, seed int64) (*cache.Hierarchy, *policy.PSel) {
	t.Helper()
	cfg := cpu.MachineSpec(seed).Cache
	h, err := cache.NewHierarchy(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	h.Prefetcher.Enabled = false
	var psel *policy.PSel
	if spec, ok := cfg.L3Policy.Spec(); ok && spec.Duel != nil {
		psel = spec.Duel.PSel
	}
	return h, psel
}

// planLines draws the line addresses traces use: lines that share an L2
// set (so the L1D and L2 evict, dirty lines included, and write back
// into the L3), lines that share an L3 set per slice (so the L3 evicts
// and its policy decides), and lines spread over 2 MiB.
func planLines(rng *rand.Rand, cpu uarch.CPU) []uint64 {
	l2Span := cpu.L2Size / uint64(cpu.L2Assoc)
	l3Span := cpu.L3Size / uint64(cpu.L3Slices) / uint64(cpu.L3Assoc)
	var lines []uint64
	for set := uint64(0); set < 3; set++ {
		off := uint64(rng.Intn(int(l2Span/64))) * 64
		for k := uint64(0); k < uint64(cpu.L2Assoc+cpu.L1Assoc); k++ {
			lines = append(lines, 1<<24+off+k*l2Span)
		}
	}
	off := uint64(rng.Intn(int(l3Span/64))) * 64
	for k := uint64(0); k < uint64(2*cpu.L3Assoc); k++ {
		lines = append(lines, 1<<25+off+k*l3Span*uint64(cpu.L3Slices))
	}
	for k := 0; k < 24; k++ {
		lines = append(lines, 1<<26+uint64(rng.Intn(1<<15))*64)
	}
	return lines
}

// randomTrace records a random operation sequence: loads (most of them
// counting), stores, code fetches, counter reads of the sampled counter
// 0 and of others, CLFLUSHes, and zero, one or two WBINVDs.
func randomTrace(rng *rand.Rand, lines []uint64) []cache.TraceOp {
	var s cache.TraceSink
	n := 16 + rng.Intn(240)
	var flushes []int
	for k := rng.Intn(3); k > 0; k-- {
		flushes = append(flushes, rng.Intn(n))
	}
	for i := 0; i < n; i++ {
		for _, f := range flushes {
			if f == i {
				s.Flush()
			}
		}
		phys := lines[rng.Intn(len(lines))] + uint64(rng.Intn(64))
		switch r := rng.Intn(100); {
		case r < 45:
			s.Data(phys, false, rng.Intn(4) != 0, 0)
		case r < 65:
			s.Data(phys, true, false, 0)
		case r < 85:
			s.Code(phys&^63, phys, 0)
		case r < 92:
			s.CtrRead(uint32(rng.Intn(2)), rng.Intn(6) == 0)
		default:
			s.FlushLine(phys)
		}
	}
	return s.Ops
}

// checkPlanMatchesWalk replays a few random traces on two hierarchies of
// cpu, one through Replay (which plans) and one through Walk, rounds
// times, interleaved with direct accesses and occasional restreams. It
// fails at the first replay whose hits or resulting state differ, and
// returns how many replays ran from a plan.
func checkPlanMatchesWalk(t testing.TB, cpu uarch.CPU, seed int64, rounds int) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ph, pPSel := planHierarchy(t, cpu, seed)
	rh, rPSel := planHierarchy(t, cpu, seed)
	lines := planLines(rng, cpu)
	type trace struct {
		ops  []cache.TraceOp
		want int
		rt   *cache.ResolvedTrace
	}
	traces := make([]trace, 2+rng.Intn(5))
	for i := range traces {
		ops, want := randomTrace(rng, lines), 1+rng.Intn(4)
		traces[i] = trace{ops, want, ph.CompileTrace(ops, 0, want)}
	}
	for round := 0; round < rounds; round++ {
		switch rng.Intn(10) {
		case 0:
			ph.Restream(int64(round))
			rh.Restream(int64(round))
		case 1, 2, 3:
			for k := rng.Intn(24); k > 0; k-- {
				phys, write := lines[rng.Intn(len(lines))], rng.Intn(3) == 0
				var got, want cache.Result
				if rng.Intn(4) == 0 {
					got, want = ph.Code(phys), rh.Code(phys)
				} else {
					got, want = ph.Data(phys, write), rh.Data(phys, write)
				}
				if got != want {
					t.Fatalf("%s seed %d round %d: direct access at %#x served %+v, walked hierarchy %+v",
						cpu.Name, seed, round, phys, got, want)
				}
			}
		}
		k := rng.Intn(len(traces))
		tr := &traces[k]
		got, ok := ph.Replay(tr.rt)
		if !ok {
			t.Fatalf("%s: Replay refused with the prefetcher off", cpu.Name)
		}
		want := cache.Walk(rh, rh.CompileTrace(tr.ops, 0, tr.want))
		if got != want {
			t.Fatalf("%s seed %d round %d trace %d: %d hits, walk %d", cpu.Name, seed, round, k, got, want)
		}
		if d := cache.StateDiff(ph, rh); d != "" {
			t.Fatalf("%s seed %d round %d trace %d: %s", cpu.Name, seed, round, k, d)
		}
		if pPSel != nil && *pPSel != *rPSel {
			t.Fatalf("%s seed %d round %d trace %d: PSEL %+v, walk %+v", cpu.Name, seed, round, k, *pPSel, *rPSel)
		}
	}
	planned, _ := ph.ReplayStats()
	return planned
}

// TestReplayPlanMatchesWalk runs the plan ≡ walk check on every catalog
// model, and requires plans to have engaged on each: every model's upper
// levels draw no randomness.
func TestReplayPlanMatchesWalk(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, cpu := range planModels() {
		planned := uint64(0)
		for seed := int64(1); seed <= seeds; seed++ {
			planned += checkPlanMatchesWalk(t, cpu, seed, 40)
		}
		if planned == 0 {
			t.Errorf("%s: no replay ran from a plan", cpu.Name)
		}
	}
}

// FuzzReplayPlanMatchesWalk is the same check over fuzzed seeds and
// models.
func FuzzReplayPlanMatchesWalk(f *testing.F) {
	for i, seed := range []int64{7, 1031, 1442, 20260101} {
		f.Add(uint8(i*3), seed)
	}
	models := planModels()
	f.Fuzz(func(t *testing.T, model uint8, seed int64) {
		checkPlanMatchesWalk(t, models[int(model)%len(models)], seed, 24)
	})
}

// TestReplayPlanNeedsDeterministicUpperLevels pins when a trace gets a
// plan: with a RANDOM L2 no replay ever plans, and with the model's own
// policies only single-flush traces do, from their second replay on.
func TestReplayPlanNeedsDeterministicUpperLevels(t *testing.T) {
	cpu, err := uarch.ByName("Skylake")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	lines := planLines(rng, cpu)
	var flushOps [3][]cache.TraceOp // by WBINVD count
	for n := 0; n < 3; n++ {
		for flushOps[n] == nil {
			ops := randomTrace(rng, lines)
			k := 0
			for _, op := range ops {
				if op.Kind == cache.OpFlush {
					k++
				}
			}
			if k == n {
				flushOps[n] = ops
			}
		}
	}
	replay := func(h *cache.Hierarchy) (planned, walked uint64) {
		for n, ops := range flushOps {
			rt := h.CompileTrace(ops, 0, 3)
			for i := 0; i < 4; i++ {
				if _, ok := h.Replay(rt); !ok {
					t.Fatalf("%d-flush trace: Replay refused with the prefetcher off", n)
				}
			}
		}
		return h.ReplayStats()
	}

	h, _ := planHierarchy(t, cpu, 1)
	if planned, walked := replay(h); planned != 3 || walked != 9 {
		t.Errorf("Skylake: %d planned and %d walked replays, want 3 and 9", planned, walked)
	}

	cfg := cpu.MachineSpec(1).Cache
	cfg.L2Policy = cache.SimplePolicy("RANDOM")
	h, err = cache.NewHierarchy(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Prefetcher.Enabled = false
	if planned, walked := replay(h); planned != 0 || walked != 12 {
		t.Errorf("RANDOM L2: %d planned and %d walked replays, want 0 and 12", planned, walked)
	}
}
