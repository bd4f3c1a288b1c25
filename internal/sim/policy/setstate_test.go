package policy

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSetStateRoundTrip saves one set of a kernel mid-trace, loads the
// words into a different set of a fresh kernel, and then drives both
// sets through the same random accesses: every victim and every later
// save must agree. Odd associativities cover the partly filled last
// word of the packed LRU stamps and QLRU ages.
func TestSetStateRoundTrip(t *testing.T) {
	names := []string{"LRU", "FIFO", "PLRU", "QLRU_H11_M1_R0_U0", "QLRU_H00_M1_R2_U1", "QLRU_H21_M2_R1_U3_UMO", "QLRU_H10_M3_R1_U2"}
	for _, name := range names {
		for _, assoc := range []int{3, 4, 8, 12, 16} {
			if name == "PLRU" && assoc&(assoc-1) != 0 {
				continue
			}
			for seed := int64(1); seed <= 4; seed++ {
				checkSetStateRoundTrip(t, name, assoc, seed)
			}
		}
	}
}

func checkSetStateRoundTrip(t *testing.T, name string, assoc int, seed int64) {
	t.Helper()
	const sets = 4
	mk := func() (Engine, SetState) {
		e, err := newKernel(name, sets, assoc, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := SetStateOf(e)
		if !ok {
			t.Fatalf("%s: no per-set state accessor", name)
		}
		return e, st
	}
	a, aState := mk()
	b, bState := mk()
	rng := rand.New(rand.NewSource(seed))
	valid := make([]bool, assoc)
	// step applies one random access or invalidation to set si of e.
	step := func(e Engine, si int, r, w int, hit bool) int {
		switch {
		case r < 15:
			e.OnInvalidate(si, w)
			return -1
		case hit:
			e.OnHit(si, w)
			return -1
		}
		v := e.Victim(si)
		e.OnFill(si, v)
		return v
	}
	for op := 0; op < 400; op++ {
		if op == 200 {
			words := aState.AppendSetState(nil, 0)
			if rest := bState.LoadSetState(3, words); len(rest) != 0 {
				t.Fatalf("%s/%d: load left %d of %d words", name, assoc, len(rest), len(words))
			}
		}
		r, w := rng.Intn(100), rng.Intn(assoc)
		hit := valid[w] && r < 50
		if r < 15 && !valid[w] {
			continue
		}
		va := step(a, 0, r, w, hit)
		if op >= 200 {
			if vb := step(b, 3, r, w, hit); va != vb {
				t.Fatalf("%s/%d seed %d op %d: victim %d, loaded copy %d", name, assoc, seed, op, va, vb)
			}
			if sa, sb := aState.AppendSetState(nil, 0), bState.AppendSetState(nil, 3); !slices.Equal(sa, sb) {
				t.Fatalf("%s/%d seed %d op %d: state %x, loaded copy %x", name, assoc, seed, op, sa, sb)
			}
		}
		switch {
		case r < 15:
			valid[w] = false
		case va >= 0:
			valid[va] = true
		}
	}
}

// TestSetStateOnlyDeterministic pins which engines offer per-set state:
// replay plans rely on SetStateOf refusing every engine that draws
// randomness or shares state across sets.
func TestSetStateOnlyDeterministic(t *testing.T) {
	for _, name := range []string{"RANDOM", "QLRU_H11_MR161_R1_U2", "MRU", "MRU*"} {
		e, err := newKernel(name, 4, 8, func(set int) *rand.Rand { return rand.New(rand.NewSource(int64(set))) })
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := SetStateOf(e); ok {
			t.Errorf("%s: SetStateOf accepted an engine outside the deterministic kernels", name)
		}
	}
	duel, err := NewEngine(Spec{Duel: &DuelSpec{
		PolicyA: "QLRU_H11_M1_R0_U0", PolicyB: "LRU", PSel: NewPSel(64),
		Leader: func(slice, set int) byte { return 'A' },
	}}, 0, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SetStateOf(duel); ok {
		t.Error("SetStateOf accepted the dueling combinator")
	}
	if _, ok := SetStateOf(NewReferenceEngine("LRU", 4, func(set int, rng *rand.Rand) Policy { return MustNew("LRU", 8, rng) }, nil)); ok {
		t.Error("SetStateOf accepted the reference engine")
	}
}
