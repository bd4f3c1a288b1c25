// Package cache implements the simulated memory hierarchy: set-associative
// caches with pluggable replacement policies, a sliced last-level cache
// with an XOR-bits slice-hash function, and a disableable stream
// prefetcher. The hierarchy reports per-access results that the core
// translates into performance-counter events.
//
// Replacement decisions run on the flat-state policy.Engine: all sets'
// replacement state for one cache lives in packed arrays, and line
// tags/flags are flat per-cache arrays indexed by set*assoc+way. Policy
// randomness follows the per-set seeding contract of internal/sim/policy:
// each set's RNG stream is derived from (machine seed, slice, set, stream
// index), never from a shared RNG, so decisions are independent of
// set-touch order and of how experiments are sharded across workers.
package cache

import (
	"fmt"
	"math/rand"
	"slices"

	"nanobench/internal/sim/policy"
)

// PolicyFactory describes the replacement policy of a cache. Spec exposes
// the declarative form compiled into a flat policy.Engine kernel; New
// builds the reference per-set Policy object (the equivalence oracle, and
// the execution path for factories without a Spec).
type PolicyFactory interface {
	// New builds the reference policy of one set. slice is the cache
	// slice (0 for unsliced caches), set the set index within the slice.
	New(slice, set, assoc int, rng *rand.Rand) policy.Policy
	// Spec returns the declarative policy description, if the factory
	// has one. Factories returning ok=false run on the reference engine.
	Spec() (policy.Spec, bool)
}

// SimplePolicy adapts a policy name to a PolicyFactory.
func SimplePolicy(name string) PolicyFactory { return simplePolicy{name} }

type simplePolicy struct{ name string }

func (p simplePolicy) New(_, _, assoc int, rng *rand.Rand) policy.Policy {
	return policy.MustNew(p.name, assoc, rng)
}

func (p simplePolicy) Spec() (policy.Spec, bool) { return policy.Spec{Name: p.name}, true }

// AdaptivePolicy adapts a set-dueling description to a PolicyFactory.
func AdaptivePolicy(d policy.DuelSpec) PolicyFactory { return adaptivePolicy{d} }

type adaptivePolicy struct{ d policy.DuelSpec }

func (p adaptivePolicy) New(slice, set, assoc int, rng *rand.Rand) policy.Policy {
	switch p.d.Leader(slice, set) {
	case 'A':
		return policy.NewLeader(policy.MustNew(p.d.PolicyA, assoc, rng), p.d.PSel, true)
	case 'B':
		return policy.NewLeader(policy.MustNew(p.d.PolicyB, assoc, rng), p.d.PSel, false)
	}
	f, err := policy.NewFollower(policy.MustNew(p.d.PolicyA, assoc, rng), policy.MustNew(p.d.PolicyB, assoc, rng), p.d.PSel)
	if err != nil {
		panic(err)
	}
	return f
}

func (p adaptivePolicy) Spec() (policy.Spec, bool) {
	d := p.d
	return policy.Spec{Duel: &d}, true
}

// FuncPolicy wraps an arbitrary per-set policy constructor. Caches built
// from it run on the reference per-set engine (no flat kernel); tests use
// it to force the reference path.
func FuncPolicy(f func(slice, set, assoc int, rng *rand.Rand) policy.Policy) PolicyFactory {
	return funcPolicy{f}
}

type funcPolicy struct {
	f func(slice, set, assoc int, rng *rand.Rand) policy.Policy
}

func (p funcPolicy) New(slice, set, assoc int, rng *rand.Rand) policy.Policy {
	return p.f(slice, set, assoc, rng)
}

func (p funcPolicy) Spec() (policy.Spec, bool) { return policy.Spec{}, false }

// Geometry describes one cache level (or one slice of a sliced cache).
type Geometry struct {
	Name     string
	Size     uint64 // bytes for this cache (per-slice size for slices)
	Assoc    int
	LineSize int
	Latency  int // access latency in cycles on a hit at this level
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int {
	return int(g.Size) / (g.Assoc * g.LineSize)
}

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	if g.LineSize == 0 || g.LineSize&(g.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size must be a power of two", g.Name)
	}
	if g.Assoc <= 0 {
		return fmt.Errorf("cache %s: bad associativity %d", g.Name, g.Assoc)
	}
	sets := g.Sets()
	if sets <= 0 || uint64(sets*g.Assoc*g.LineSize) != g.Size {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			g.Name, g.Size, g.Assoc, g.LineSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", g.Name, sets)
	}
	return nil
}

const (
	flagValid = 1 << 0
	flagDirty = 1 << 1
)

// invalidTag marks an invalid way in the tags array, so lookup scans test
// one word per way instead of a flag byte plus a tag word. Real tags are
// phys >> lineBits with phys far below 2^63; the sentinel can't collide.
const invalidTag = ^uint64(0)

// Cache is one set-associative cache (a single slice of a sliced cache).
// Line state is held in flat arrays indexed by set*assoc+way; replacement
// state lives in the policy engine.
type Cache struct {
	Geom     Geometry
	Slice    int
	setMask  uint64
	lineBits uint
	assoc    int

	tags  []uint64
	flags []uint8

	// epoch implements O(1) whole-cache invalidation (WBINVD): sets whose
	// setEpoch lags are cleared lazily on first touch. A new cache starts
	// one epoch ahead of its zeroed setEpoch, so the same path initializes
	// each set on its first touch and construction never walks the tags.
	epoch      uint32
	setEpoch   []uint32
	setValid   []int32
	validCount int

	eng policy.Engine
	// st saves and loads one set's replacement state. It is nil unless
	// the engine draws no randomness (policy.SetStateOf); replay plans
	// need it at the L1I, L1D and L2.
	st policy.SetState
	// seed/stream parameterize the per-set RNG streams (policy.SetSeed);
	// Restream bumps stream to re-derive them, and Hierarchy.Reseed sets
	// seed before restreaming.
	seed   int64
	stream int64
}

// New builds a cache for the factory's policy, compiled to a flat engine
// kernel when the factory exposes a Spec. seed is the root of the per-set
// RNG streams (policy.SetSeed seeding contract).
func New(geom Geometry, slice int, pf PolicyFactory, seed int64) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	nSets := geom.Sets()
	c := &Cache{
		Geom:     geom,
		Slice:    slice,
		setMask:  uint64(nSets - 1),
		assoc:    geom.Assoc,
		tags:     make([]uint64, nSets*geom.Assoc),
		flags:    make([]uint8, nSets*geom.Assoc),
		setEpoch: make([]uint32, nSets),
		setValid: make([]int32, nSets),
		epoch:    1,
		seed:     seed,
	}
	for ls := geom.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	rngFor := func(set int) *rand.Rand {
		return policy.NewSetRand(c.seed, c.Slice, set, c.stream)
	}
	var err error
	if spec, ok := pf.Spec(); ok {
		c.eng, err = policy.NewEngine(spec, slice, nSets, geom.Assoc, rngFor)
	} else {
		c.eng = policy.NewReferenceEngine("custom", nSets, func(set int, rng *rand.Rand) policy.Policy {
			return pf.New(slice, set, geom.Assoc, rng)
		}, rngFor)
	}
	if err != nil {
		return nil, err
	}
	c.st, _ = policy.SetStateOf(c.eng)
	return c, nil
}

// SetIndex returns the set index for a physical address. For sliced caches
// the caller must select the slice first; the set index uses the address
// bits above the line offset.
func (c *Cache) SetIndex(phys uint64) int {
	return int((phys >> c.lineBits) & c.setMask)
}

func (c *Cache) tag(phys uint64) uint64 {
	return phys >> c.lineBits
}

// ensure applies any pending epoch-based invalidation to a set and
// returns its base index into the line arrays. The epoch check is kept
// inlinable; the clear itself is the cold path.
func (c *Cache) ensure(si int) int {
	if c.setEpoch[si] != c.epoch {
		c.clearSet(si)
	}
	return si * c.assoc
}

func (c *Cache) clearSet(si int) {
	base := si * c.assoc
	flags := c.flags[base : base+c.assoc]
	for i := range flags {
		flags[i] = 0
	}
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		tags[i] = invalidTag
	}
	c.setValid[si] = 0
	c.eng.Reset(si)
	c.setEpoch[si] = c.epoch
}

// Probe reports whether the line containing phys is present, without
// touching replacement state.
func (c *Cache) Probe(phys uint64) bool {
	base := c.ensure(c.SetIndex(phys))
	t := c.tag(phys)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == t {
			return true
		}
	}
	return false
}

// Access looks up phys; on a hit it updates replacement state and returns
// hit=true. On a miss it fills the line, updating replacement state, and
// returns the evicted line's physical base address (evicted=true if a
// valid line was replaced; wbPhys is meaningful only if dirty).
func (c *Cache) Access(phys uint64, write bool) (hit bool, evicted bool, evictedDirty bool, evictedPhys uint64) {
	return c.access(c.SetIndex(phys), c.tag(phys), write)
}

// accessTag is Access keyed by line tag (phys >> lineBits): the trace
// replay walk pre-shifts addresses once at compile time, so per-op lookup
// is a mask instead of a shift+mask per level.
func (c *Cache) accessTag(t uint64, write bool) (hit bool, evicted bool, evictedDirty bool, evictedPhys uint64) {
	return c.access(int(t&c.setMask), t, write)
}

func (c *Cache) access(si int, t uint64, write bool) (hit bool, evicted bool, evictedDirty bool, evictedPhys uint64) {
	base := c.ensure(si)
	// Subslicing lets the compiler drop the per-way bounds checks in the
	// lookup scan, the hottest loop of both execution and trace replay.
	tags := c.tags[base : base+c.assoc]
	for w, tag := range tags {
		if tag == t {
			c.eng.OnHit(si, w)
			if write {
				c.flags[base+w] |= flagDirty
			}
			return true, false, false, 0
		}
	}
	w := c.eng.Victim(si)
	i := base + w
	if c.flags[i]&flagValid != 0 {
		evicted = true
		evictedDirty = c.flags[i]&flagDirty != 0
		evictedPhys = c.tags[i] << c.lineBits
	} else {
		c.setValid[si]++
		c.validCount++
	}
	c.flags[i] = flagValid
	if write {
		c.flags[i] |= flagDirty
	}
	c.tags[i] = t
	c.eng.OnFill(si, w)
	return false, evicted, evictedDirty, evictedPhys
}

// Fill inserts the line containing phys without counting as a demand
// access (prefetch fills use this too). Replacement state is updated as a
// fill. If the line is already present, only the dirty bit may be updated.
func (c *Cache) Fill(phys uint64, dirty bool) (evicted bool, evictedDirty bool, evictedPhys uint64) {
	return c.fill(c.SetIndex(phys), c.tag(phys), dirty)
}

// fillTag is Fill keyed by line tag (see accessTag).
func (c *Cache) fillTag(t uint64, dirty bool) {
	c.fill(int(t&c.setMask), t, dirty)
}

func (c *Cache) fill(si int, t uint64, dirty bool) (evicted bool, evictedDirty bool, evictedPhys uint64) {
	base := c.ensure(si)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == t {
			if dirty {
				c.flags[i] |= flagDirty
			}
			return false, false, 0
		}
	}
	w := c.eng.Victim(si)
	i := base + w
	if c.flags[i]&flagValid != 0 {
		evicted = true
		evictedDirty = c.flags[i]&flagDirty != 0
		evictedPhys = c.tags[i] << c.lineBits
	} else {
		c.setValid[si]++
		c.validCount++
	}
	c.flags[i] = flagValid
	if dirty {
		c.flags[i] |= flagDirty
	}
	c.tags[i] = t
	c.eng.OnFill(si, w)
	return
}

// InvalidateLine removes the line containing phys if present, returning
// whether it was present and dirty.
func (c *Cache) InvalidateLine(phys uint64) (present, dirty bool) {
	return c.invalidate(c.SetIndex(phys), c.tag(phys))
}

// invalidateTag is InvalidateLine keyed by line tag (see accessTag).
func (c *Cache) invalidateTag(t uint64) {
	c.invalidate(int(t&c.setMask), t)
}

func (c *Cache) invalidate(si int, t uint64) (present, dirty bool) {
	base := c.ensure(si)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == t {
			present, dirty = true, c.flags[i]&flagDirty != 0
			c.flags[i] = 0
			c.tags[i] = invalidTag
			c.eng.OnInvalidate(si, i-base)
			c.setValid[si]--
			c.validCount--
			return
		}
	}
	return
}

// InvalidateAll clears the whole cache (WBINVD) in O(1) by bumping the
// epoch; sets are cleared lazily on their next access. It returns the
// number of lines that were valid (used to model WBINVD latency).
func (c *Cache) InvalidateAll() int {
	n := c.validCount
	c.bumpEpoch()
	return n
}

// Restream invalidates the cache and re-derives every set's RNG stream
// for experiment index stream (policy.SetSeed seeding contract). The
// post-Restream state is a pure function of (seed, slice, stream),
// independent of anything simulated before — the invariant that lets
// set-sweeping experiments shard (block, set) groups across workers with
// byte-identical results at any worker count.
func (c *Cache) Restream(stream int64) {
	c.stream = stream
	c.bumpEpoch()
	c.eng.Restream()
}

// bumpEpoch makes every set stale and empties the cache. When the epoch
// wraps, the per-set epochs are cleared as well: otherwise a set last
// cleared exactly 2^32 bumps ago would look current and serve its old
// lines. A pooled machine's caches outlive one evaluation and bump the
// epoch on every reset and every WBINVD, so the wrap is reachable.
func (c *Cache) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.setEpoch)
		c.epoch = 1
	}
	c.validCount = 0
}

// setSnapshot is the state of every current set of one cache — each set
// touched since the cache was last invalidated — as a replay plan
// records it (trace.go). Only valid ways are stored.
type setSnapshot struct {
	sets  []int32  // the current sets, ascending
	valid []uint8  // valid ways of each set
	tags  []uint64 // tags of the valid ways, set by set
	ways  []uint8  // way<<1 | dirty, one per stored tag
	state []uint64 // replacement state, set by set (policy.SetState)
}

// snapshot records the state of every current set into s, reusing its
// storage. The cache's engine must offer per-set state (c.st).
func (c *Cache) snapshot(s *setSnapshot) {
	*s = setSnapshot{s.sets[:0], s.valid[:0], s.tags[:0], s.ways[:0], s.state[:0]}
	for si, e := range c.setEpoch {
		if e != c.epoch {
			continue
		}
		base := si * c.assoc
		n := 0
		for w, f := range c.flags[base : base+c.assoc] {
			if f&flagValid != 0 {
				way := uint8(w << 1)
				if f&flagDirty != 0 {
					way |= 1
				}
				s.tags = append(s.tags, c.tags[base+w])
				s.ways = append(s.ways, way)
				n++
			}
		}
		s.sets = append(s.sets, int32(si))
		s.valid = append(s.valid, uint8(n))
		s.state = c.st.AppendSetState(s.state, si)
	}
}

// clone returns a copy of s sized exactly, for a plan to keep.
func (s *setSnapshot) clone() setSnapshot {
	return setSnapshot{slices.Clone(s.sets), slices.Clone(s.valid), slices.Clone(s.tags), slices.Clone(s.ways), slices.Clone(s.state)}
}

// install makes the cache hold exactly the snapshot: its sets become
// current with the stored lines and replacement state. It must follow
// an InvalidateAll, which left every set stale and no line valid, so the
// snapshot's lines are all the valid lines there are.
func (c *Cache) install(s *setSnapshot) {
	tags, ways, state := s.tags, s.ways, s.state
	for k, si32 := range s.sets {
		si := int(si32)
		base := si * c.assoc
		for i := base; i < base+c.assoc; i++ {
			c.tags[i] = invalidTag
			c.flags[i] = 0
		}
		n := int(s.valid[k])
		for j, t := range tags[:n] {
			i := base + int(ways[j]>>1)
			c.tags[i] = t
			c.flags[i] = flagValid
			if ways[j]&1 != 0 {
				c.flags[i] |= flagDirty
			}
		}
		tags, ways = tags[n:], ways[n:]
		c.setValid[si] = int32(n)
		c.setEpoch[si] = c.epoch
		state = c.st.LoadSetState(si, state)
	}
	c.validCount = len(s.tags)
}

// ValidLines counts the currently valid lines (for tests and WBINVD cost).
func (c *Cache) ValidLines() int { return c.validCount }

// PolicyName returns the name of the compiled policy engine.
func (c *Cache) PolicyName() string { return c.eng.Name() }
