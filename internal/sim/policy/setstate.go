package policy

// Per-set state save and load.
//
// Tree-PLRU, LRU/FIFO and the QLRU variants without probabilistic
// insertion draw no randomness: a set's future decisions are a function
// of its state words and the accesses it sees. SetState copies those
// words out and back in. Cache replay plans (internal/sim/cache, trace.go)
// record the end state of the upper-level sets a trace touches and
// install it on later replays instead of re-walking the accesses that
// produced it.

// SetState saves and loads the replacement state of single sets.
type SetState interface {
	// AppendSetState appends set's state to dst and returns the extended
	// slice.
	AppendSetState(dst []uint64, set int) []uint64
	// LoadSetState overwrites set's state with the words at the start of
	// src, which AppendSetState of an engine of the same policy and
	// geometry produced, and returns the rest of src.
	LoadSetState(set int, src []uint64) []uint64
}

// SetStateOf returns e's per-set state accessor when e is a kernel that
// draws no randomness. RANDOM, probabilistic QLRU (MRpx), the dueling
// combinator (its PSEL is shared across sets), MRU and the reference
// engine report ok=false.
func SetStateOf(e Engine) (SetState, bool) {
	switch v := e.(type) {
	case *plruEngine:
		return v, true
	case *stampEngine:
		return v, true
	case *qlruEngine:
		if v.q.InsertProb == 0 {
			return v, true
		}
	}
	return nil, false
}

// PLRU state: the occupancy word, then the tree word.

func (e *plruEngine) AppendSetState(dst []uint64, set int) []uint64 {
	return append(dst, e.occ.words[set], e.tree[set])
}

func (e *plruEngine) LoadSetState(set int, src []uint64) []uint64 {
	e.occ.words[set], e.tree[set] = src[0], src[1]
	return src[2:]
}

// LRU/FIFO state: the occupancy word, the clock, then the stamps two
// per word.

func (e *stampEngine) AppendSetState(dst []uint64, set int) []uint64 {
	dst = append(dst, e.occ.words[set], uint64(e.clock[set]))
	stamps := e.stamps[set*e.assoc : (set+1)*e.assoc]
	for w := 0; w < len(stamps); w += 2 {
		v := uint64(stamps[w])
		if w+1 < len(stamps) {
			v |= uint64(stamps[w+1]) << 32
		}
		dst = append(dst, v)
	}
	return dst
}

func (e *stampEngine) LoadSetState(set int, src []uint64) []uint64 {
	e.occ.words[set], e.clock[set] = src[0], uint32(src[1])
	src = src[2:]
	stamps := e.stamps[set*e.assoc : (set+1)*e.assoc]
	for w := 0; w < len(stamps); w += 2 {
		stamps[w] = uint32(src[0])
		if w+1 < len(stamps) {
			stamps[w+1] = uint32(src[0] >> 32)
		}
		src = src[1:]
	}
	return src
}

// QLRU state: the occupancy word, then the bias followed by the age
// histogram, then the stored ages, each value in a 16-bit lane, four
// lanes per word. Stored ages of invalid ways are saved too, so a loaded
// set is word-for-word the saved one.

func (e *qlruEngine) AppendSetState(dst []uint64, set int) []uint64 {
	h := e.hist[set*4 : set*4+4]
	dst = append(dst, e.occ.words[set],
		uint64(uint16(e.bias[set])),
		uint64(h[0])|uint64(h[1])<<16|uint64(h[2])<<32|uint64(h[3])<<48)
	ages := e.ages[set*e.assoc : (set+1)*e.assoc]
	for w := 0; w < len(ages); w += 4 {
		var v uint64
		for k := 0; k < 4 && w+k < len(ages); k++ {
			v |= uint64(uint16(ages[w+k])) << (16 * k)
		}
		dst = append(dst, v)
	}
	return dst
}

func (e *qlruEngine) LoadSetState(set int, src []uint64) []uint64 {
	e.occ.words[set] = src[0]
	e.bias[set] = int16(src[1])
	h := e.hist[set*4 : set*4+4]
	for k := range h {
		h[k] = int32(uint16(src[2] >> (16 * k)))
	}
	src = src[3:]
	ages := e.ages[set*e.assoc : (set+1)*e.assoc]
	for w := 0; w < len(ages); w += 4 {
		for k := 0; k < 4 && w+k < len(ages); k++ {
			ages[w+k] = int16(src[0] >> (16 * k))
		}
		src = src[1:]
	}
	return src
}
