package policy

import "math/rand"

// Per-set RNG seeding contract
//
// Randomized policies (RANDOM victims, probabilistic QLRU insertion) draw
// from a dedicated stream per cache set, never from a shared machine RNG.
// The stream of a set is a pure function of four values:
//
//	SetSeed(root, slice, set, stream)
//
// where root is the owning machine's seed, (slice, set) locate the set
// within its cache, and stream is an experiment index (0 at construction;
// Cache.Restream selects another). Because the seed does not depend on
// when — or whether — other sets are touched, policy decisions are
// reproducible independent of set-initialization order, and independent
// sets can be simulated on any number of workers with byte-identical
// results. The derivation mirrors internal/sched's index-derived seeds:
// one SplitMix64 finalizer application per component.

const golden = 0x9E3779B97F4A7C15 // SplitMix64 increment

// mix64 is the SplitMix64 finalizer (same mixing as sched.DeriveSeed).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SetSeed derives the deterministic RNG seed of one cache set under the
// package seeding contract (see above).
func SetSeed(root int64, slice, set int, stream int64) int64 {
	z := mix64(uint64(root) + golden*uint64(slice+1))
	z = mix64(z + golden*uint64(set+1))
	z = mix64(z + golden*(uint64(stream)+1))
	return int64(z)
}

// splitmixSource is a SplitMix64 rand.Source64. Its 8 bytes of state make
// per-set streams ~600× cheaper to create than the default Go source
// (which allocates a 607-word lagged-Fibonacci table per stream).
type splitmixSource struct{ s uint64 }

func (p *splitmixSource) Uint64() uint64 {
	p.s += golden
	return mix64(p.s)
}

func (p *splitmixSource) Int63() int64    { return int64(p.Uint64() >> 1) }
func (p *splitmixSource) Seed(seed int64) { p.s = uint64(seed) }

// NewSetRand returns the RNG of one cache set under the seeding contract.
func NewSetRand(root int64, slice, set int, stream int64) *rand.Rand {
	return rand.New(&splitmixSource{s: uint64(SetSeed(root, slice, set, stream))})
}

// RNGFor hands an Engine the RNG of one set. Engines call it at most once
// per set between Restream calls and memoize the result, so providers may
// construct the stream on demand.
type RNGFor func(set int) *rand.Rand

// LazyRNG returns an RNGFor that materializes one shared stream seeded
// with seed on first draw. Deterministic policies never trigger the
// construction, which keeps building large candidate pools cheap.
func LazyRNG(seed int64) RNGFor {
	var r *rand.Rand
	return func(int) *rand.Rand {
		if r == nil {
			r = rand.New(rand.NewSource(seed))
		}
		return r
	}
}
