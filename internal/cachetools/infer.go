package cachetools

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"nanobench/internal/sim/policy"
)

// InferOptions tunes the replacement-policy identification tool
// (Section VI-C1, second tool).
type InferOptions struct {
	// MaxSequences bounds the number of measured random sequences.
	MaxSequences int
	// Seed drives sequence generation.
	Seed int64
	// Candidates overrides the candidate policy names (nil: all
	// deterministic built-ins plus every meaningful QLRU variant).
	Candidates []string
}

// InferenceResult reports the surviving candidates of a policy inference.
type InferenceResult struct {
	// Matches are the candidate policies consistent with every measured
	// sequence, grouped into behavioural equivalence classes: all
	// candidates in one inner slice behave identically on the probe
	// suite.
	Classes [][]string
	// SequencesUsed is the number of hardware measurements taken.
	SequencesUsed int
}

// Unique reports whether the measurements narrowed the policy down to a
// single behavioural class, and returns a representative name.
func (r *InferenceResult) Unique() (string, bool) {
	if len(r.Classes) != 1 || len(r.Classes[0]) == 0 {
		return "", false
	}
	return r.Classes[0][0], true
}

// Matches flattens the equivalence classes.
func (r *InferenceResult) Matches() []string {
	var out []string
	for _, c := range r.Classes {
		out = append(out, c...)
	}
	return out
}

// Contains reports whether name survived.
func (r *InferenceResult) Contains(name string) bool {
	for _, c := range r.Classes {
		for _, n := range c {
			if n == name {
				return true
			}
		}
	}
	return false
}

// DefaultCandidates returns the deterministic candidate policies: the
// classic ones plus all meaningful QLRU variants (Section VI-B2).
func DefaultCandidates(assoc int) []string {
	names := []string{"LRU", "FIFO", "MRU", "MRU*"}
	if assoc&(assoc-1) == 0 {
		names = append(names, "PLRU")
	}
	return append(names, policy.EnumerateQLRU()...)
}

// InferPolicy identifies the replacement policy of one cache set by
// generating random access sequences, measuring their hit counts with
// cacheSeq, and comparing against simulations of every candidate policy
// (Section VI-C1). It stops once a single behavioural class remains or the
// sequence budget is exhausted.
func (t *Tool) InferPolicy(level Level, slice, set int, opt InferOptions) (*InferenceResult, error) {
	return t.InferPolicyContext(context.Background(), level, slice, set, opt)
}

// InferPolicyContext is InferPolicy bounded by a context: cancellation
// aborts between measured sequences with the context's error.
func (t *Tool) InferPolicyContext(ctx context.Context, level Level, slice, set int, opt InferOptions) (*InferenceResult, error) {
	assoc := t.Assoc(level)
	if opt.MaxSequences == 0 {
		opt.MaxSequences = 200
	}
	cands := opt.Candidates
	if cands == nil {
		cands = DefaultCandidates(assoc)
	}

	var alive []candidate
	for _, n := range cands {
		s, err := policy.NewSingle(n, assoc, policy.LazyRNG(1))
		if err != nil {
			return nil, fmt.Errorf("cachetools: candidate %s: %w", n, err)
		}
		alive = append(alive, candidate{n, s})
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	structured := len(t.structuredSequences(assoc))
	used := 0
	for used < opt.MaxSequences && len(alive) > 1 {
		var seq Seq
		if used >= structured+8 && len(alive) <= 64 {
			// Few candidates left: search, in simulation, for a sequence
			// the survivors disagree on, and measure that one. If none
			// exists, the survivors are observationally equivalent.
			var ok bool
			seq, ok = t.discriminatingSequence(alive, assoc)
			if !ok {
				break
			}
		} else {
			seq = t.genSequence(rng, assoc, used)
		}
		res, err := t.RunSeqContext(ctx, level, slice, set, seq.AllMeasured())
		if err != nil {
			return nil, err
		}
		used++
		blocks := seq.Blocks()
		var next []candidate
		for _, c := range alive {
			if c.sim.CountHitsBatch(blocks) == res.Hits {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			// No deterministic candidate matches: likely a probabilistic
			// or adaptive policy; report the empty result.
			return &InferenceResult{SequencesUsed: used}, nil
		}
		alive = next
	}

	names := aliveNames(alive)
	return &InferenceResult{
		Classes:       t.equivClasses(names, assoc),
		SequencesUsed: used,
	}, nil
}

// candidate pairs a policy name with a reusable flat-state simulator.
type candidate struct {
	name string
	sim  *policy.Single
}

func aliveNames(cands []candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// sigKey identifies one candidate's probe-suite signature.
type sigKey struct {
	name  string
	assoc int
}

// probeSuite returns the canonical per-associativity probe suite: the
// fixed set of random sequences that defines observational equivalence
// between candidate policies. Both the discriminating-sequence search and
// the final equivalence grouping run on this suite, so "no discriminating
// sequence exists" and "the survivors form one class" are the same
// statement by construction.
func (t *Tool) probeSuite(assoc int) [][]int {
	if s, ok := t.sigSuite[assoc]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(99))
	suite := make([][]int, 300)
	for i := range suite {
		n := 2*assoc + 8 + rng.Intn(2*assoc+8)
		s := make([]int, n)
		for j := range s {
			s[j] = rng.Intn(assoc + 4)
		}
		suite[i] = s
	}
	t.sigSuite[assoc] = suite
	return suite
}

// signature memoizes a candidate's hit counts over the probe suite, one
// byte per sequence. Candidates are deterministic (DefaultCandidates
// enumerates no probabilistic variant), so a fresh simulator's counts are
// the candidate's counts.
func (t *Tool) signature(name string, assoc int) (string, bool) {
	k := sigKey{name, assoc}
	if s, ok := t.sigCache[k]; ok {
		return s, s != ""
	}
	suite := t.probeSuite(assoc)
	p, err := policy.NewSingle(name, assoc, policy.LazyRNG(1))
	if err != nil {
		t.sigCache[k] = ""
		return "", false
	}
	key := make([]byte, 0, len(suite))
	for _, s := range suite {
		key = append(key, byte(p.CountHitsBatch(s)))
	}
	t.sigCache[k] = string(key)
	return string(key), true
}

// discriminatingSequence returns a probe-suite sequence on which the
// surviving candidates predict different hit counts, or ok=false when
// their suite signatures all agree (the survivors are observationally
// equivalent and will be grouped into one class).
func (t *Tool) discriminatingSequence(alive []candidate, assoc int) (Seq, bool) {
	suite := t.probeSuite(assoc)
	first, ok := t.signature(alive[0].name, assoc)
	if !ok {
		return Seq{}, false
	}
	for _, c := range alive[1:] {
		sig, ok := t.signature(c.name, assoc)
		if !ok {
			continue
		}
		for i := 0; i < len(sig) && i < len(first); i++ {
			if sig[i] != first[i] {
				return SeqOf(true, suite[i]...), true
			}
		}
	}
	return Seq{}, false
}

// genSequence produces the i-th test sequence: a few structured patterns
// first (fills, refills, single promotions — these split the big policy
// families quickly), then random sequences of 2×assoc + 8 accesses drawn
// from assoc + 4 distinct blocks.
func (t *Tool) genSequence(rng *rand.Rand, assoc, i int) Seq {
	structured := t.structuredSequences(assoc)
	if i < len(structured) {
		return structured[i]
	}
	s := Seq{WbInvd: true}
	for j := 0; j < 2*assoc+8; j++ {
		s.Accesses = append(s.Accesses, Access{Block: rng.Intn(assoc + 4)})
	}
	return s
}

// structuredSequences returns hand-shaped discriminating sequences.
func (t *Tool) structuredSequences(assoc int) []Seq {
	fill := make([]int, assoc)
	for i := range fill {
		fill[i] = i
	}
	var out []Seq
	// Fill then re-access in order: separates policies by insertion and
	// promotion behaviour.
	out = append(out, SeqOf(true, append(append([]int{}, fill...), fill...)...))
	// Fill, one extra block, then probe all: shows the first victim.
	probe := append(append([]int{}, fill...), assoc)
	probe = append(probe, fill...)
	out = append(out, SeqOf(true, probe...))
	// Fill, promote block 0, insert extra, probe: hit-promotion shape.
	promo := append(append([]int{}, fill...), 0, assoc)
	promo = append(promo, fill...)
	out = append(out, SeqOf(true, promo...))
	// Double-length thrash: cyclic access of assoc+1 blocks.
	var thrash []int
	for r := 0; r < 3; r++ {
		for b := 0; b <= assoc; b++ {
			thrash = append(thrash, b)
		}
	}
	out = append(out, SeqOf(true, thrash...))
	return out
}

// equivClasses groups candidate names whose simulations agree on a probe
// suite of random sequences (some QLRU variants are observationally
// equivalent, as the paper notes for R0/R1 with U0).
func (t *Tool) equivClasses(names []string, assoc int) [][]string {
	if len(names) <= 1 {
		if len(names) == 0 {
			return nil
		}
		return [][]string{names}
	}
	sig := map[string]string{}
	for _, n := range names {
		if s, ok := t.signature(n, assoc); ok {
			sig[n] = s
		}
	}
	groups := map[string][]string{}
	for _, n := range names {
		groups[sig[n]] = append(groups[sig[n]], n)
	}
	var out [][]string
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
