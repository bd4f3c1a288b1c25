package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchNames is the name pool the batch and wide-assoc equivalence tests
// run over: every registered policy, the full deterministic QLRU grid,
// and sampled probabilistic variants.
func batchNames() []string {
	names := append(Names(), EnumerateQLRU()...)
	return append(names, probabilisticVariants...)
}

// checkBatchTrace plays the same random block sequences through a scalar
// Single and a batch Single built from identical RNG streams and requires
// bit-identical per-access hits, including residency-state carryover
// effects across rounds (RNG streams persist on both sides).
func checkBatchTrace(t *testing.T, name string, assoc int, seed int64) {
	t.Helper()
	scalar, err := NewSingle(name, assoc, LazyRNG(seed))
	if err != nil {
		t.Fatalf("NewSingle(%s): %v", name, err)
	}
	batch := MustSingle(name, assoc, LazyRNG(seed))
	rng := rand.New(rand.NewSource(seed * 613))
	for round := 0; round < 3; round++ {
		seq := make([]int, 100+rng.Intn(60))
		for i := range seq {
			seq[i] = rng.Intn(assoc + 4)
		}
		want := scalar.Simulate(seq)
		got := batch.SimulateBatch(seq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s assoc %d seed %d round %d: access %d: batch hit=%v, scalar hit=%v",
					name, assoc, seed, round, i, got[i], want[i])
			}
		}
		if h, w := batch.CountHitsBatch(seq), scalar.CountHits(seq); h != w {
			t.Fatalf("%s assoc %d seed %d round %d: CountHitsBatch=%d, CountHits=%d",
				name, assoc, seed, round, h, w)
		}
	}
}

// TestBatchMatchesScalar pins the batch driver (through Single.SimulateBatch /
// CountHitsBatch) bit-identical to the scalar per-access protocol for
// every specialized kernel and the reference fallback, across ≥40 seeds
// (see engineSeeds) and the full QLRU grid.
func TestBatchMatchesScalar(t *testing.T) {
	seeds := engineSeeds(t)
	for _, name := range batchNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				checkBatchTrace(t, name, 8, int64(seed)+1)
			}
		})
	}
}

// TestBatchMatchesScalarMultiSet drives the batch driver against the
// scalar protocol on a multi-set engine (including the set-dueling
// combinator, whose PSEL and leader bitmaps are cross-set state),
// interleaving batches on different sets.
func TestBatchMatchesScalarMultiSet(t *testing.T) {
	const sets, assoc = 8, 8
	leaderOf := func(slice, set int) byte {
		switch set % 4 {
		case 0:
			return 'A'
		case 1:
			return 'B'
		}
		return 0
	}
	specs := []struct {
		label string
		mk    func() Spec
	}{
		{"LRU", func() Spec { return Spec{Name: "LRU"} }},
		{"PLRU", func() Spec { return Spec{Name: "PLRU"} }},
		{"QLRU_H11_M1_R1_U2", func() Spec { return Spec{Name: "QLRU_H11_M1_R1_U2"} }},
		{"QLRU_H21_MR42_R2_U1_UMO", func() Spec { return Spec{Name: "QLRU_H21_MR42_R2_U1_UMO"} }},
		{"DUEL", func() Spec {
			return Spec{Duel: &DuelSpec{
				PolicyA: "QLRU_H11_M1_R1_U2", PolicyB: "QLRU_H11_MR161_R1_U2",
				PSel: NewPSel(64), Leader: leaderOf,
			}}
		}},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.label, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < engineSeeds(t); seed++ {
				root := int64(seed)*977 + 3
				rngFor := func(set int) *rand.Rand { return NewSetRand(root, 0, set, 0) }
				engS, err := NewEngine(sp.mk(), 0, sets, assoc, rngFor)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				engB, err := NewEngine(sp.mk(), 0, sets, assoc, rngFor)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				for s := 0; s < sets; s++ {
					engS.Reset(s)
					engB.Reset(s)
				}
				const blocks = assoc + 4
				mkState := func() ([]int32, []int32) {
					wayOf := make([]int32, blocks)
					blockAt := make([]int32, assoc)
					for i := range wayOf {
						wayOf[i] = -1
					}
					for i := range blockAt {
						blockAt[i] = -1
					}
					return wayOf, blockAt
				}
				wayS := make([][]int32, sets)
				blkS := make([][]int32, sets)
				wayB := make([][]int32, sets)
				blkB := make([][]int32, sets)
				for s := 0; s < sets; s++ {
					wayS[s], blkS[s] = mkState()
					wayB[s], blkB[s] = mkState()
				}
				rng := rand.New(rand.NewSource(root + 5))
				for round := 0; round < 12; round++ {
					set := rng.Intn(sets)
					seq := make([]int32, 20+rng.Intn(40))
					for i := range seq {
						seq[i] = int32(rng.Intn(blocks))
					}
					hitsB := make([]bool, len(seq))
					nB := accessBatch(engB, set, seq, wayB[set], blkB[set], hitsB)
					nS := accessScalar(engS, set, seq, wayS[set], blkS[set], nil)
					if nB != nS {
						t.Fatalf("%s seed %d round %d set %d: batch hits=%d, scalar hits=%d",
							sp.label, seed, round, set, nB, nS)
					}
					for i := range wayS[set] {
						if wayS[set][i] != wayB[set][i] {
							t.Fatalf("%s seed %d round %d set %d: wayOf[%d] diverged: scalar %d, batch %d",
								sp.label, seed, round, set, i, wayS[set][i], wayB[set][i])
						}
					}
				}
			}
		})
	}
}

// TestWideKernelsMatchReference pins associativities above the flat
// kernels' 64-way limit, which compile to the reference engine: at 96,
// 128, and 256 ways (PLRU only at its power-of-two widths) the engine
// must match the per-set reference policies across reset/restream
// traces, and the batch driver must match the scalar protocol.
func TestWideKernelsMatchReference(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"LRU", 96}, {"LRU", 128}, {"LRU", 256},
		{"FIFO", 96}, {"FIFO", 128}, {"FIFO", 256},
		{"PLRU", 128}, {"PLRU", 256},
	}
	seeds := engineSeeds(t) / 4
	if seeds < 4 {
		seeds = 4
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%d", c.name, c.assoc), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				checkNamedEngine(t, c.name, 2, c.assoc, int64(seed)+1)
			}
			for seed := 0; seed < seeds; seed++ {
				checkBatchTrace(t, c.name, c.assoc, int64(seed)+11)
			}
		})
	}
}

// TestEngineSpecialization pins the fallback matrix: which name ×
// associativity pairs compile to specialized kernels and which fall back
// to the reference engine (now observable via IsReference and the
// EngineFallbacks counter).
func TestEngineSpecialization(t *testing.T) {
	cases := []struct {
		name     string
		assoc    int
		fallback bool
	}{
		{"LRU", 8, false},
		{"LRU", 64, false},
		{"LRU", 65, true}, // kernels stop at one 64-bit occupancy word
		{"LRU", 256, true},
		{"FIFO", 128, true},
		{"PLRU", 16, false},
		{"PLRU", 64, false},
		{"PLRU", 128, true},
		{"RANDOM", 8, false},
		{"RANDOM", 128, true},
		{"MRU", 8, false},
		{"MRU", 96, true},
		{"QLRU_H11_M1_R1_U2", 16, false},
		{"QLRU_H11_M1_R1_U2", 96, true},
	}
	rngFor := LazyRNG(1)
	for _, c := range cases {
		before := EngineFallbacks()
		eng, err := NewEngine(Spec{Name: c.name}, 0, 2, c.assoc, rngFor)
		if err != nil {
			t.Fatalf("NewEngine(%s, assoc %d): %v", c.name, c.assoc, err)
		}
		counted := EngineFallbacks() - before
		if got := IsReference(eng); got != c.fallback {
			t.Errorf("%s assoc %d: IsReference=%v, want %v", c.name, c.assoc, got, c.fallback)
		}
		if (counted > 0) != c.fallback {
			t.Errorf("%s assoc %d: EngineFallbacks advanced by %d, want fallback=%v",
				c.name, c.assoc, counted, c.fallback)
		}
	}
	// The dueling combinator reports a fallback if either side fell back.
	duel := func(a, b string, assoc int) Engine {
		eng, err := NewEngine(Spec{Duel: &DuelSpec{
			PolicyA: a, PolicyB: b, PSel: NewPSel(64),
			Leader: func(slice, set int) byte { return 0 },
		}}, 0, 2, assoc, rngFor)
		if err != nil {
			t.Fatalf("NewEngine(duel %s/%s): %v", a, b, err)
		}
		return eng
	}
	if IsReference(duel("LRU", "MRU", 8)) {
		t.Errorf("DUEL(LRU,MRU) assoc 8: unexpectedly reference")
	}
	if !IsReference(duel("LRU", "MRU", 96)) {
		t.Errorf("DUEL(LRU,MRU) assoc 96: should fall back")
	}
}
