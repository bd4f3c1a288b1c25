package cachetools

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/sim/machine"
	"nanobench/internal/sim/policy"
	"nanobench/internal/uarch"
)

// newTool builds a tool on the given CPU model with a smaller big area
// (tests never need the full Figure-1 block count).
func newTool(t *testing.T, cpuName string) *Tool {
	t.Helper()
	cpu, err := uarch.ByName(cpuName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := nano.NewRunner(m, machine.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AllocBigArea(32 << 20); err != nil {
		t.Fatal(err)
	}
	tool, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func TestParseSeq(t *testing.T) {
	seq, err := ParseSeq("<wbinvd> B0 B1 B2? b0?")
	if err != nil {
		t.Fatal(err)
	}
	want := Seq{WbInvd: true, Accesses: []Access{
		{0, false}, {1, false}, {2, true}, {0, true},
	}}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("ParseSeq = %+v", seq)
	}
	if seq.String() != "<wbinvd> B0 B1 B2? B0?" {
		t.Fatalf("String() = %q", seq.String())
	}
	for _, bad := range []string{"", "X1", "B", "B-1", "B0 <wbinvd>"} {
		if _, err := ParseSeq(bad); err == nil {
			t.Errorf("ParseSeq(%q): expected error", bad)
		}
	}
}

func TestBlocksDistinctAndMapped(t *testing.T) {
	tool := newTool(t, "Skylake")
	for _, lvl := range []Level{L1, L2, L3} {
		set := 20
		if lvl != L1 {
			set = 520
		}
		blocks, err := tool.Blocks(lvl, 0, set, 12)
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		seen := map[uint32]bool{}
		for _, b := range blocks {
			if seen[b] {
				t.Fatalf("%s: duplicate block %#x", lvl, b)
			}
			seen[b] = true
			phys, ok := tool.R.M.Mem.Translate(b)
			if !ok {
				t.Fatalf("%s: unmapped block %#x", lvl, b)
			}
			if got := tool.setOf(lvl, phys); got != set {
				t.Fatalf("%s: block %#x in set %d, want %d", lvl, b, got, set)
			}
			if lvl == L3 {
				if s := tool.R.M.Hier.Slice(phys); s != 0 {
					t.Fatalf("block %#x in slice %d, want 0", b, s)
				}
			}
		}
	}
}

func TestRunSeqBasicHit(t *testing.T) {
	tool := newTool(t, "Skylake")
	res, err := tool.RunSeq(L1, 0, 20, MustParseSeq("<wbinvd> B0 B0? B1? B0?"))
	if err != nil {
		t.Fatal(err)
	}
	// B0 hit, B1 cold miss, B0 hit again.
	if res.Hits != 2 || res.Measured != 3 {
		t.Fatalf("RunSeq = %+v, want 2 hits of 3", res)
	}
}

// crossCheck compares hardware-counter measurements with the pure policy
// simulation of the ground-truth policy, on a batch of random sequences —
// the key validation that cacheSeq observes exactly the modelled policy.
func crossCheck(t *testing.T, tool *Tool, level Level, slice, set int, groundTruth string, seqs, seqLen int) {
	t.Helper()
	assoc := tool.Assoc(level)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < seqs; i++ {
		var blocks []int
		for j := 0; j < seqLen; j++ {
			blocks = append(blocks, rng.Intn(assoc+3))
		}
		seq := SeqOf(true, blocks...).AllMeasured()
		res, err := tool.RunSeq(level, slice, set, seq)
		if err != nil {
			t.Fatal(err)
		}
		ref := policy.MustNew(groundTruth, assoc, rand.New(rand.NewSource(1)))
		want := policy.CountHits(ref, blocks)
		if res.Hits != want {
			t.Fatalf("%s seq %d (%v): measured %d hits, ground-truth %s predicts %d",
				level, i, blocks, res.Hits, groundTruth, want)
		}
	}
}

func TestCrossCheckL1(t *testing.T) {
	tool := newTool(t, "Skylake")
	crossCheck(t, tool, L1, 0, 37, "PLRU", 8, 20)
}

func TestCrossCheckL2(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	tool := newTool(t, "Skylake")
	crossCheck(t, tool, L2, 0, 520, "QLRU_H00_M1_R2_U1", 6, 12)
}

func TestCrossCheckL3(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	tool := newTool(t, "Skylake")
	crossCheck(t, tool, L3, 1, 600, "QLRU_H11_M1_R0_U0", 5, 24)
}

func TestCrossCheckL3Nehalem(t *testing.T) {
	tool := newTool(t, "Nehalem")
	crossCheck(t, tool, L3, 0, 700, "MRU", 4, 24)
}

func TestCodeCleanGuard(t *testing.T) {
	tool := newTool(t, "Skylake")
	// Sets near 0 collide with the code region's cache lines.
	_, err := tool.RunSeq(L3, 0, 1, MustParseSeq("<wbinvd> B0 B0?"))
	if err == nil {
		t.Skip("code region does not cover set 1 on this layout")
	}
}

func TestInferPolicyL1(t *testing.T) {
	tool := newTool(t, "Skylake")
	res, err := tool.InferPolicy(L1, 0, 37, InferOptions{MaxSequences: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains("PLRU") {
		t.Fatalf("PLRU not among matches: %v", res.Classes)
	}
	if len(res.Classes) != 1 {
		t.Fatalf("inference not unique: %v", res.Classes)
	}
}

func TestInferPolicyL2Skylake(t *testing.T) {
	tool := newTool(t, "Skylake")
	res, err := tool.InferPolicy(L2, 0, 520, InferOptions{MaxSequences: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains("QLRU_H00_M1_R2_U1") {
		t.Fatalf("ground truth not among matches: %v", res.Classes)
	}
	if len(res.Classes) != 1 {
		t.Fatalf("inference not unique: %v", res.Classes)
	}
}

func TestInferPolicyRejectsWrongCandidates(t *testing.T) {
	tool := newTool(t, "Skylake")
	// Against an L1 PLRU cache, a candidate list without PLRU must end up
	// empty.
	res, err := tool.InferPolicy(L1, 0, 37, InferOptions{
		MaxSequences: 30, Seed: 5,
		Candidates: []string{"LRU", "FIFO", "MRU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches()) != 0 {
		t.Fatalf("expected no survivors, got %v", res.Classes)
	}
}

func TestAgeSampleL1(t *testing.T) {
	tool := newTool(t, "Skylake")
	prefix := MustParseSeq("<wbinvd> B0 B1 B2 B3 B4 B5 B6 B7")
	// Immediately after the fill, every block hits (0 fresh blocks).
	hit, err := tool.AgeSample(L1, 0, 37, prefix, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("block 7 should hit with 0 fresh blocks")
	}
	// After assoc fresh blocks, the first-filled block is long gone.
	hit, err = tool.AgeSample(L1, 0, 37, prefix, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("block 0 should be evicted after 8 fresh blocks")
	}
}

func TestAgeGraphShape(t *testing.T) {
	tool := newTool(t, "Skylake")
	prefix := MustParseSeq("<wbinvd> B0 B1 B2 B3 B4 B5 B6 B7")
	g, err := tool.AgeGraphFor(L1, 0, 37, prefix, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.BlockIDs) != 8 || len(g.FreshCounts) != 5 {
		t.Fatalf("graph shape: %d blocks, %d points", len(g.BlockIDs), len(g.FreshCounts))
	}
	// Survival is monotone for PLRU: full at n=0, empty at n=8.
	for bi := range g.BlockIDs {
		if g.Hits[bi][0] != g.Trials {
			t.Fatalf("block %d: %d/%d hits at n=0", bi, g.Hits[bi][0], g.Trials)
		}
		if g.Hits[bi][len(g.FreshCounts)-1] != 0 {
			t.Fatalf("block %d still alive after 8 fresh blocks", bi)
		}
	}
	if s := g.Format(); len(s) == 0 {
		t.Fatal("empty format")
	}
	if v, ok := g.SurvivalAt(0, 0); !ok || v != 1.0 {
		t.Fatalf("SurvivalAt(0,0) = %v, %v", v, ok)
	}
}

// TestRejectsLevelOutsideL1ToL3: every measuring entry point fails on a
// level outside L1-L3 instead of measuring some other level's set, and
// naming such a level does not panic.
func TestRejectsLevelOutsideL1ToL3(t *testing.T) {
	tool := newTool(t, "Skylake")
	seq := MustParseSeq("<wbinvd> B0 B1 B0?")
	for _, level := range []Level{0, 4, -1} {
		name := level.String()
		if want := fmt.Sprintf("Level(%d)", int(level)); name != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(level), name, want)
		}
		if res, err := tool.RunSeq(level, 0, 768, seq); err == nil {
			t.Errorf("RunSeq(%s) = %+v, want an error", name, res)
		}
		if res, err := tool.InferPolicy(level, 0, 768, InferOptions{}); err == nil {
			t.Errorf("InferPolicy(%s) = %+v, want an error", name, res)
		}
		if g, err := tool.AgeGraphFor(level, 0, 768, seq, 4, 2, 1); err == nil {
			t.Errorf("AgeGraphFor(%s) = %+v, want an error", name, g)
		}
	}
}

func TestVerifyPermutationsPLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	tool := newTool(t, "Skylake")
	perms, err := policy.PLRUPerms(8)
	if err != nil {
		t.Fatal(err)
	}
	check, err := tool.VerifyPermutations(L1, 0, 37, perms)
	if err != nil {
		t.Fatal(err)
	}
	if !check.OK() {
		t.Fatalf("PLRU permutations rejected: %v", check.Mismatches)
	}
	// The LRU permutations must NOT verify against a PLRU cache.
	check, err = tool.VerifyPermutations(L1, 0, 37, policy.LRUPerms(8))
	if err != nil {
		t.Fatal(err)
	}
	if check.OK() {
		t.Fatal("LRU permutations wrongly verified against a PLRU cache")
	}
}

func TestFindDedicatedSetsIvyBridge(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	tool := newTool(t, "IvyBridge")
	sets := []int{500, 512, 540, 575, 600, 768, 800, 831, 900}
	rep, err := tool.FindDedicatedSets([]int{0}, sets, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{512, 540, 575} {
		if got := rep.Class[[2]int{0, s}]; got != ClassDeterministic {
			t.Errorf("set %d: class %c, want A (deterministic leader)", s, got)
		}
	}
	for _, s := range []int{768, 800, 831} {
		if got := rep.Class[[2]int{0, s}]; got != ClassStochastic {
			t.Errorf("set %d: class %c, want B (stochastic leader)", s, got)
		}
	}
	for _, s := range []int{500, 600, 900} {
		if got := rep.Class[[2]int{0, s}]; got != ClassFollower {
			t.Errorf("set %d: class %c, want F (follower)", s, got)
		}
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}

func TestDuelingHaswellSliceDifference(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	tool := newTool(t, "Haswell")
	// Haswell's dedicated sets exist only in slice 0 (Section VI-D).
	rep, err := tool.FindDedicatedSets([]int{0, 1}, []int{520, 780}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Class[[2]int{0, 520}]; got != ClassDeterministic {
		t.Errorf("slice 0 set 520: %c, want A", got)
	}
	if got := rep.Class[[2]int{0, 780}]; got != ClassStochastic {
		t.Errorf("slice 0 set 780: %c, want B", got)
	}
	for _, s := range []int{520, 780} {
		if got := rep.Class[[2]int{1, s}]; got != ClassFollower {
			t.Errorf("slice 1 set %d: %c, want F", s, got)
		}
	}
}

// TestRunOnceSeqAllocs bounds the cost of the run-once programs policy
// campaigns are made of: on a used Skylake tool, a cacheSeq image never
// run before — a new 40-access L3 sequence, so no recorded trace to
// replay and every trace block built afresh — allocates at most 1,000
// objects per RunSeq. Trace blocks that reuse the storage earlier images
// left keep it there; building each block with its own slot arrays costs
// about 2,200.
func TestRunOnceSeqAllocs(t *testing.T) {
	tool := newTool(t, "Skylake")
	rng := rand.New(rand.NewSource(5))
	runOnce := func() {
		seq := Seq{WbInvd: true}
		for i := 0; i < 40; i++ {
			seq.Accesses = append(seq.Accesses, Access{Block: rng.Intn(24), Measured: i >= 8})
		}
		if _, err := tool.RunSeq(L3, 0, 600, seq); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		runOnce()
	}
	if allocs := testing.AllocsPerRun(10, runOnce); allocs > 1000 {
		t.Fatalf("a run-once 40-access L3 sequence allocates %.0f objects, want at most 1,000", allocs)
	}
}
