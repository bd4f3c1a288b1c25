package policy

// This file holds the one batch driver: accessBatch plays a run of
// same-set accesses (the shape cachetools inference generates — long
// block-ID sequences confined to one set) through the scalar
// OnHit/Victim/OnFill protocol. A kernel takes the run itself only when
// its own loop measurably beats that protocol in
// BenchmarkPolicyEngineBatch (gated by make bench-compare); today that is
// the QLRU kernel alone, whose loop hoists the per-set age and histogram
// views out of the inner loop. Every path is pinned bit-identical to the
// scalar protocol by TestBatchMatchesScalar.

// accessBatch plays seq against set of e. seq[i] is the abstract block
// ID of access i; wayOf (block → way) and blockAt (way → block) carry the
// caller's residency mapping with -1 meaning "absent", and are updated in
// place exactly as the scalar protocol would update them. If hits is
// non-nil it must have len(seq); hits[i] is set for accesses that hit
// (never cleared — callers pass zeroed slices). Returns the hit count.
func accessBatch(e Engine, set int, seq, wayOf, blockAt []int32, hits []bool) int {
	if q, ok := e.(*qlruEngine); ok {
		return q.accessBatch(set, seq, wayOf, blockAt, hits)
	}
	return accessScalar(e, set, seq, wayOf, blockAt, hits)
}

// accessScalar is accessBatch through the per-access Engine calls alone:
// the scalar protocol itself, and the oracle the QLRU loop is tested
// against.
func accessScalar(e Engine, set int, seq, wayOf, blockAt []int32, hits []bool) int {
	n := 0
	for i, b := range seq {
		if w := wayOf[b]; w >= 0 {
			e.OnHit(set, int(w))
			n++
			if hits != nil {
				hits[i] = true
			}
			continue
		}
		w := int32(e.Victim(set))
		if old := blockAt[w]; old >= 0 {
			wayOf[old] = -1
		}
		wayOf[b] = w
		blockAt[w] = b
		e.OnFill(set, int(w))
	}
	return n
}

func (e *qlruEngine) accessBatch(set int, seq, wayOf, blockAt []int32, hits []bool) int {
	// ages/h alias the engine's backing arrays, so the update/renorm
	// helpers (which age through the bias and histogram) stay coherent
	// with the hoisted views. The bias itself is reloaded per use — the
	// U-variant aging mutates it mid-batch.
	base := set * e.assoc
	ages := e.ages[base : base+e.assoc]
	h := e.hist[set*4 : set*4+4]
	umo := e.q.UpdateOnMissOnly
	n := 0
	for i, b := range seq {
		if w := wayOf[b]; w >= 0 {
			old := ages[w] - e.bias[set]
			nw := int16(e.hitTab[old])
			if nw != old {
				ages[w] = nw + e.bias[set]
				h[old]--
				h[nw]++
			}
			if !umo && h[3] == 0 {
				e.update(set, int(w))
			}
			n++
			if hits != nil {
				hits[i] = true
			}
			continue
		}
		var w int32
		if !e.occ.isFull(set) {
			if e.q.RVariant == 2 {
				w = int32(e.occ.rightmostEmpty(set))
			} else {
				w = int32(e.occ.leftmostEmpty(set))
			}
		} else {
			if umo {
				e.update(set, -1)
			}
			if h[3] == 0 {
				w = 0
			} else {
				want := 3 + e.bias[set]
				w = 0
				for v := 0; v < e.assoc; v++ {
					if ages[v] == want {
						w = int32(v)
						break
					}
				}
			}
		}
		if old := blockAt[w]; old >= 0 {
			wayOf[old] = -1
		}
		wayOf[b] = w
		blockAt[w] = b
		if e.occ.test(set, int(w)) {
			h[ages[w]-e.bias[set]]--
		}
		e.occ.mark(set, int(w))
		a := int16(e.insertionAge(set))
		ages[w] = a + e.bias[set]
		h[a]++
		if !umo && h[3] == 0 {
			e.update(set, int(w))
		}
	}
	return n
}
