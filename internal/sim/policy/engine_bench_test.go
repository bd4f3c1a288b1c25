package policy

import (
	"math/rand"
	"testing"
)

// benchTrace is a fixed synthetic access stream: (set, block) pairs drawn
// from a pool slightly larger than the associativity, so the trace mixes
// hits, capacity misses, and evictions the way the cache-policy
// experiments do.
func benchTrace(sets, assoc, n int) [][2]int {
	rng := rand.New(rand.NewSource(7))
	trace := make([][2]int, n)
	for i := range trace {
		trace[i] = [2]int{rng.Intn(sets), rng.Intn(assoc + 4)}
	}
	return trace
}

// BenchmarkPolicyEngine isolates the replacement-policy layer from the
// cache and experiment code: one representative name per specialized
// kernel family runs the same trace through the flat-state engine
// (/engine) and through per-set reference Policy objects (/reference),
// so the interface-dispatch overhead the engine removes is measurable
// directly.
func BenchmarkPolicyEngine(b *testing.B) {
	const sets, assoc = 64, 8
	trace := benchTrace(sets, assoc, 1<<14)
	rngFor := func(set int) *rand.Rand { return NewSetRand(1, 0, set, 0) }

	for _, name := range []string{"LRU", "PLRU", "QLRU_H11_M1_R0_U0"} {
		b.Run(name+"/engine", func(b *testing.B) {
			eng, err := NewEngine(Spec{Name: name}, 0, sets, assoc, rngFor)
			if err != nil {
				b.Fatal(err)
			}
			lines := make([]int, sets*assoc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, blk := trace[i%len(trace)][0], trace[i%len(trace)][1]
				hit := -1
				for w := 0; w < assoc; w++ {
					if lines[s*assoc+w] == blk+1 {
						hit = w
						break
					}
				}
				if hit >= 0 {
					eng.OnHit(s, hit)
					continue
				}
				w := eng.Victim(s)
				eng.OnFill(s, w)
				lines[s*assoc+w] = blk + 1
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			pols := make([]Policy, sets)
			for s := range pols {
				pols[s] = MustNew(name, assoc, rngFor(s))
			}
			lines := make([]int, sets*assoc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, blk := trace[i%len(trace)][0], trace[i%len(trace)][1]
				hit := -1
				for w := 0; w < assoc; w++ {
					if lines[s*assoc+w] == blk+1 {
						hit = w
						break
					}
				}
				if hit >= 0 {
					pols[s].OnHit(hit)
					continue
				}
				w := pols[s].Victim()
				pols[s].OnFill(w)
				lines[s*assoc+w] = blk + 1
			}
		})
	}
}

// BenchmarkPolicyEngineBatch runs the same trace through the batch driver
// (per-set runs of the stream; /batch) against the scalar
// OnHit/Victim/OnFill loop (/scalar). It is the evidence a kernel's own
// batch loop must show to be kept: where none exists the two series run
// the same loop. ns/op is per access for both variants.
func BenchmarkPolicyEngineBatch(b *testing.B) {
	const sets, assoc = 64, 8
	trace := benchTrace(sets, assoc, 1<<14)
	rngFor := func(set int) *rand.Rand { return NewSetRand(1, 0, set, 0) }

	// Split the trace into per-set block sequences: the batch entry point
	// probes one set's run at a time, as the single-set experiments do.
	perSet := make([][]int32, sets)
	for _, sb := range trace {
		perSet[sb[0]] = append(perSet[sb[0]], int32(sb[1]))
	}

	for _, name := range []string{"LRU", "PLRU", "QLRU_H11_M1_R0_U0"} {
		b.Run(name+"/batch", func(b *testing.B) {
			eng, err := NewEngine(Spec{Name: name}, 0, sets, assoc, rngFor)
			if err != nil {
				b.Fatal(err)
			}
			wayOf := make([]int32, sets*(assoc+4))
			blockAt := make([]int32, sets*assoc)
			for i := range wayOf {
				wayOf[i] = -1
			}
			for i := range blockAt {
				blockAt[i] = -1
			}
			b.ResetTimer()
			done := 0
			for done < b.N {
				for s := 0; s < sets && done < b.N; s++ {
					seq := perSet[s]
					if len(seq) == 0 {
						continue
					}
					accessBatch(eng, s, seq, wayOf[s*(assoc+4):(s+1)*(assoc+4)], blockAt[s*assoc:(s+1)*assoc], nil)
					done += len(seq)
				}
			}
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			eng, err := NewEngine(Spec{Name: name}, 0, sets, assoc, rngFor)
			if err != nil {
				b.Fatal(err)
			}
			wayOf := make([]int32, sets*(assoc+4))
			blockAt := make([]int32, sets*assoc)
			for i := range wayOf {
				wayOf[i] = -1
			}
			for i := range blockAt {
				blockAt[i] = -1
			}
			b.ResetTimer()
			done := 0
			for done < b.N {
				for s := 0; s < sets && done < b.N; s++ {
					seq := perSet[s]
					if len(seq) == 0 {
						continue
					}
					accessScalar(eng, s, seq, wayOf[s*(assoc+4):(s+1)*(assoc+4)], blockAt[s*assoc:(s+1)*assoc], nil)
					done += len(seq)
				}
			}
		})
	}
}
