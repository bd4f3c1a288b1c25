package policy

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
)

// Engine owns the replacement state of every set of one cache as packed
// flat arrays, replacing one heap-allocated Policy object (and an
// interface dispatch) per set. The per-set call contract is identical to
// Policy's: Victim exactly once per miss, followed by OnFill on the
// returned way; eviction does not imply OnInvalidate.
//
// Engines are obtained from NewEngine, which compiles a Spec into a
// specialized kernel for the dominant families (LRU, FIFO, tree-PLRU,
// MRU/MRU*, RANDOM, the full QLRU grid, and the set-dueling combinator)
// and transparently falls back to the reference per-set Policy path for
// anything else. Every kernel is pinned bit-identical to its reference
// implementation by TestEngineMatchesReference.
type Engine interface {
	// Name returns the policy name the engine was compiled from.
	Name() string
	// OnHit records a hit on way of set.
	OnHit(set, way int)
	// Victim returns the fill way for a miss in set.
	Victim(set int) int
	// OnFill records a fill into way of set.
	OnFill(set, way int)
	// OnInvalidate records an explicit removal (CLFLUSH) from way of set.
	OnInvalidate(set, way int)
	// Reset restores the power-on replacement state of one set. RNG
	// streams persist across Reset, matching Policy.Reset.
	Reset(set int)
	// Restream drops every memoized per-set RNG so the next draw
	// re-derives its stream from the RNGFor provider, and restores any
	// cross-set state (the dueling PSEL) to its power-on value. The
	// caller must Reset (or otherwise invalidate) all sets alongside.
	Restream()
}

// Spec declaratively describes the replacement policy of a whole cache:
// either a plain policy name, or a set-dueling configuration.
type Spec struct {
	// Name is a policy name accepted by New ("LRU", "QLRU_H11_M1_R1_U2",
	// ...). Ignored when Duel is set.
	Name string
	// Duel, if non-nil, selects the adaptive set-dueling combinator.
	Duel *DuelSpec
}

// DuelSpec describes an adaptive (set-dueling) policy: two candidate
// policies, the shared selection counter, and the leader-set map.
type DuelSpec struct {
	PolicyA, PolicyB string
	// PSel is the selection counter, shared across every cache (slice)
	// built from this spec.
	PSel *PSel
	// Leader classifies a set: 'A' or 'B' for leader sets, anything else
	// for followers.
	Leader func(slice, set int) byte
}

// NewEngine compiles a spec into an engine for a cache of sets×assoc
// lines in slice. rng provides per-set RNG streams; engines call it
// lazily, only for sets whose policy actually draws.
func NewEngine(spec Spec, slice, sets, assoc int, rng RNGFor) (Engine, error) {
	if spec.Duel != nil {
		return newDuelEngine(spec.Duel, slice, sets, assoc, rng)
	}
	return newKernel(spec.Name, sets, assoc, rng)
}

// newKernel builds the specialized kernel for a plain policy name, or the
// reference engine when no kernel applies (associativities above 64 ways,
// future unspecialized policies).
func newKernel(name string, sets, assoc int, rng RNGFor) (Engine, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	if assoc > 0 && assoc <= 64 {
		if strings.HasPrefix(upper, "QLRU_") {
			q, err := ParseQLRU(upper)
			if err != nil {
				return nil, err
			}
			return newQLRUEngine(q, sets, assoc, rng), nil
		}
		switch upper {
		case "LRU":
			return newStampEngine(upper, sets, assoc, false), nil
		case "FIFO":
			return newStampEngine(upper, sets, assoc, true), nil
		case "PLRU":
			if assoc&(assoc-1) != 0 {
				return nil, errNonPow2(assoc)
			}
			return newPLRUEngine(sets, assoc), nil
		case "RANDOM":
			return newRandomEngine(sets, assoc, rng), nil
		case "MRU":
			return newMRUEngine(upper, sets, assoc, false), nil
		case "MRU*", "MRU_SB":
			return newMRUEngine(upper, sets, assoc, true), nil
		}
	}
	// Validate the name eagerly so misconfiguration fails at build time,
	// then fall back to the reference per-set path. The fallback is
	// deliberate but observable: EngineFallbacks counts it, and
	// IsReference identifies fallen-back engines.
	if _, err := New(upper, assoc, nil); err != nil {
		return nil, err
	}
	engineFallbacks.Add(1)
	return NewReferenceEngine(upper, sets, func(set int, rng *rand.Rand) Policy {
		return MustNew(upper, assoc, rng)
	}, rng), nil
}

// engineFallbacks counts newKernel calls that fell back to the reference
// per-set engine (no specialized kernel for the name × associativity).
var engineFallbacks atomic.Uint64

// EngineFallbacks returns the process-wide count of NewEngine/NewSingle
// compilations that fell back to the reference per-set engine. The >64-way
// fallback used to be silent; campaigns can now assert they run on
// specialized kernels by checking the counter (or IsReference) after
// construction.
func EngineFallbacks() uint64 { return engineFallbacks.Load() }

// IsReference reports whether e is (or, for the dueling combinator,
// contains) the reference per-set fallback rather than a specialized
// flat-state kernel.
func IsReference(e Engine) bool {
	switch v := e.(type) {
	case *refEngine:
		return true
	case *duelEngine:
		return IsReference(v.a) || IsReference(v.b)
	}
	return false
}

// SetFactory builds the reference Policy of one set.
type SetFactory func(set int, rng *rand.Rand) Policy

// NewReferenceEngine adapts per-set reference Policy objects to the
// Engine interface. It is the fallback for policies without a specialized
// kernel, and the oracle the equivalence tests compare kernels against.
// Policies materialize lazily on first touch (matching the pre-engine
// cache behaviour) and are rebuilt with fresh RNG streams after Restream.
func NewReferenceEngine(name string, sets int, f SetFactory, rng RNGFor) Engine {
	return &refEngine{
		name: name, f: f, rng: rng,
		pols: make([]Policy, sets),
		gen:  make([]uint32, sets),
	}
}

type refEngine struct {
	name string
	f    SetFactory
	rng  RNGFor
	pols []Policy
	// gen/cur implement O(1) Restream: a set whose gen lags cur is
	// rebuilt (power-on state, fresh RNG) on next touch.
	gen []uint32
	cur uint32
}

func (e *refEngine) pol(set int) Policy {
	if e.pols[set] == nil || e.gen[set] != e.cur {
		e.pols[set] = e.f(set, e.rng(set))
		e.gen[set] = e.cur
	}
	return e.pols[set]
}

func (e *refEngine) Name() string              { return e.name }
func (e *refEngine) OnHit(set, way int)        { e.pol(set).OnHit(way) }
func (e *refEngine) Victim(set int) int        { return e.pol(set).Victim() }
func (e *refEngine) OnFill(set, way int)       { e.pol(set).OnFill(way) }
func (e *refEngine) OnInvalidate(set, way int) { e.pol(set).OnInvalidate(way) }
func (e *refEngine) Restream()                 { e.cur++ }

func (e *refEngine) Reset(set int) {
	if e.pols[set] == nil || e.gen[set] != e.cur {
		// Not yet materialized (or stale): the next touch builds it in
		// power-on state anyway.
		return
	}
	e.pols[set].Reset()
}

// Single drives a one-set engine with abstract block IDs: the flat-state
// replacement for map-based SimulateSeq/CountHits on the inference hot
// paths. A Single is reusable; each Count/Simulate call starts from a
// fresh (Reset) set, while RNG streams persist across calls exactly like
// a reused Policy instance.
type Single struct {
	eng     Engine
	name    string
	assoc   int
	wayOf   []int32 // block ID -> way, or -1
	blockAt []int32 // way -> block ID, or -1
	seq32   []int32 // reusable int32 copy of the sequence being played
}

// NewSingle builds a single-set simulator for a named policy.
func NewSingle(name string, assoc int, rng RNGFor) (*Single, error) {
	eng, err := newKernel(name, 1, assoc, rng)
	if err != nil {
		return nil, err
	}
	return &Single{
		eng:     eng,
		name:    eng.Name(),
		assoc:   assoc,
		blockAt: make([]int32, assoc),
	}, nil
}

// Name returns the canonical policy name.
func (s *Single) Name() string { return s.name }

// Assoc returns the associativity the simulator was built for.
func (s *Single) Assoc() int { return s.assoc }

// prepare resets the set and the residency mapping for playing seq, and
// returns seq widened to int32 in the reusable buffer.
func (s *Single) prepare(seq []int) []int32 {
	if cap(s.seq32) < len(seq) {
		s.seq32 = make([]int32, len(seq))
	}
	s.seq32 = s.seq32[:len(seq)]
	maxB := 0
	for i, b := range seq {
		if b >= maxB {
			maxB = b + 1
		}
		s.seq32[i] = int32(b)
	}
	if maxB > len(s.wayOf) {
		s.wayOf = make([]int32, maxB)
	}
	for i := range s.wayOf {
		s.wayOf[i] = -1
	}
	for i := range s.blockAt {
		s.blockAt[i] = -1
	}
	s.eng.Reset(0)
	return s.seq32
}

// CountHits plays seq against a fresh set through the scalar per-access
// protocol and returns the number of hits. Block IDs must be
// non-negative.
func (s *Single) CountHits(seq []int) int {
	return accessScalar(s.eng, 0, s.prepare(seq), s.wayOf, s.blockAt, nil)
}

// Simulate plays seq against a fresh set through the scalar per-access
// protocol and reports per-access hits.
func (s *Single) Simulate(seq []int) []bool {
	hits := make([]bool, len(seq))
	accessScalar(s.eng, 0, s.prepare(seq), s.wayOf, s.blockAt, hits)
	return hits
}

// CountHitsBatch is CountHits through the batch driver, which hands the
// whole sequence to the kernel's own loop where one beats the scalar
// protocol. Results are bit-identical to CountHits (pinned by
// TestBatchMatchesScalar); the inference hot paths use this form.
func (s *Single) CountHitsBatch(seq []int) int {
	return accessBatch(s.eng, 0, s.prepare(seq), s.wayOf, s.blockAt, nil)
}

// SimulateBatch is Simulate through the batch driver.
func (s *Single) SimulateBatch(seq []int) []bool {
	hits := make([]bool, len(seq))
	accessBatch(s.eng, 0, s.prepare(seq), s.wayOf, s.blockAt, hits)
	return hits
}

// MustSingle is NewSingle that panics on error.
func MustSingle(name string, assoc int, rng RNGFor) *Single {
	s, err := NewSingle(name, assoc, rng)
	if err != nil {
		panic(fmt.Sprintf("policy: %v", err))
	}
	return s
}
