package cache

import (
	"fmt"

	"nanobench/internal/sim/policy"
)

// Config describes a full cache hierarchy. L3 geometry is per slice.
type Config struct {
	L1I, L1D, L2 Geometry
	L3           Geometry
	L3Slices     int
	SliceHash    SliceHash
	MemLatency   int

	L1IPolicy PolicyFactory
	L1DPolicy PolicyFactory
	L2Policy  PolicyFactory
	L3Policy  PolicyFactory

	PrefetchDegree int
}

// Result reports where a memory access was served and its cost.
type Result struct {
	// Level is 1, 2, or 3 for a cache hit at that level, 4 for memory.
	Level int
	// Latency is the total access latency in cycles.
	Latency int
	// Slice is the L3 slice consulted, or -1 when the access was served
	// before reaching the L3.
	Slice int
	// Prefetched is the number of prefetch fills triggered by this access.
	Prefetched int
}

// Hierarchy is the simulated cache hierarchy of one core plus the shared
// sliced L3.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  []*Cache

	hash       SliceHash
	memLatency int
	Prefetcher *Prefetcher
	lineSize   int
}

// NewHierarchy builds the hierarchy from the configuration. seed is the
// root of every cache's per-set policy RNG streams (policy.SetSeed).
func NewHierarchy(cfg Config, seed int64) (*Hierarchy, error) {
	if cfg.L3Slices != cfg.SliceHash.Slices() {
		return nil, fmt.Errorf("cache: %d slices but hash addresses %d", cfg.L3Slices, cfg.SliceHash.Slices())
	}
	if cfg.L1D.LineSize != cfg.L2.LineSize || cfg.L2.LineSize != cfg.L3.LineSize || cfg.L1I.LineSize != cfg.L1D.LineSize {
		return nil, fmt.Errorf("cache: all levels must share one line size")
	}
	h := &Hierarchy{
		hash:       cfg.SliceHash,
		memLatency: cfg.MemLatency,
		Prefetcher: NewPrefetcher(cfg.PrefetchDegree),
		lineSize:   cfg.L1D.LineSize,
	}
	var err error
	if h.L1I, err = New(cfg.L1I, 0, cfg.L1IPolicy, 0); err != nil {
		return nil, err
	}
	if h.L1D, err = New(cfg.L1D, 0, cfg.L1DPolicy, 0); err != nil {
		return nil, err
	}
	if h.L2, err = New(cfg.L2, 0, cfg.L2Policy, 0); err != nil {
		return nil, err
	}
	for s := 0; s < cfg.L3Slices; s++ {
		c, err := New(cfg.L3, s, cfg.L3Policy, 0)
		if err != nil {
			return nil, err
		}
		h.L3 = append(h.L3, c)
	}
	h.Reseed(seed)
	return h, nil
}

// Reseed restores the hierarchy to exactly the state NewHierarchy builds
// for seed, whatever it simulated before: every level takes its derived
// seed and restreams to stream 0 (an epoch bump, fresh per-set RNG
// streams, the PSEL reset), and the prefetcher is rebuilt, which also
// re-enables it. NewHierarchy itself ends with Reseed, so the fresh state
// has one definition.
func (h *Hierarchy) Reseed(seed int64) {
	// Each level gets its own derived root so (slice, set) pairs at
	// different levels (L1I, L1D, and L2 are all slice 0) never share an
	// RNG stream; L3 slices are differentiated by their slice index.
	levelSeed := func(level int) int64 { return policy.SetSeed(seed, 0, 0, int64(level)) }
	h.L1I.seed = levelSeed(0)
	h.L1D.seed = levelSeed(1)
	h.L2.seed = levelSeed(2)
	for _, c := range h.L3 {
		c.seed = levelSeed(3)
	}
	h.Restream(0)
	*h.Prefetcher = *NewPrefetcher(h.Prefetcher.Degree)
}

// Restream invalidates every level and re-derives all per-set policy RNG
// streams for experiment index stream (see Cache.Restream): the hierarchy
// state becomes a pure function of (machine seed, stream), independent of
// previously simulated work. Set-sweeping experiments use one stream
// index per independent (block, set) group so results are byte-identical
// at any worker count.
func (h *Hierarchy) Restream(stream int64) {
	h.L1I.Restream(stream)
	h.L1D.Restream(stream)
	h.L2.Restream(stream)
	for _, c := range h.L3 {
		c.Restream(stream)
	}
	h.Prefetcher.Reset()
}

// Slice returns the L3 slice for a physical address.
func (h *Hierarchy) Slice(phys uint64) int { return h.hash.Slice(phys) }

// fillL3 inserts a line into its L3 slice (writebacks and prefetches).
func (h *Hierarchy) fillL3(phys uint64, dirty bool) {
	h.L3[h.hash.Slice(phys)].Fill(phys, dirty)
}

// l2Writeback handles a dirty eviction out of the L2.
func (h *Hierarchy) l2Writeback(phys uint64) {
	h.fillL3(phys, true)
}

// l1Writeback handles a dirty eviction out of the L1D.
func (h *Hierarchy) l1Writeback(phys uint64) {
	_, ev, evDirty, evPhys := h.L2.Access(phys, true)
	if ev && evDirty {
		h.l2Writeback(evPhys)
	}
}

// Data performs a demand data access (load or store) and reports where it
// was served. The hierarchy is non-inclusive; dirty evictions write back
// into the next level.
func (h *Hierarchy) Data(phys uint64, write bool) Result {
	res := Result{Slice: -1}

	hit, ev, evDirty, evPhys := h.L1D.Access(phys, write)
	if ev && evDirty {
		h.l1Writeback(evPhys)
	}
	res.Latency = h.L1D.Geom.Latency
	if hit {
		res.Level = 1
		return res
	}

	// L2 lookup; the stream prefetcher observes demand traffic here.
	hit2, ev2, ev2Dirty, ev2Phys := h.L2.Access(phys, false)
	if ev2 && ev2Dirty {
		h.l2Writeback(ev2Phys)
	}
	for _, pf := range h.Prefetcher.Observe(phys, h.lineSize) {
		if !h.L2.Probe(pf) {
			ev, dirty, wb := h.L2.Fill(pf, false)
			if ev && dirty {
				h.l2Writeback(wb)
			}
			h.fillL3(pf, false)
			res.Prefetched++
		}
	}
	res.Latency += h.L2.Geom.Latency
	if hit2 {
		res.Level = 2
		return res
	}

	slice := h.hash.Slice(phys)
	res.Slice = slice
	hit3, _, _, _ := h.L3[slice].Access(phys, false)
	res.Latency += h.L3[slice].Geom.Latency
	if hit3 {
		res.Level = 3
		return res
	}

	res.Level = 4
	res.Latency += h.memLatency
	return res
}

// Code performs an instruction fetch for the line containing phys.
func (h *Hierarchy) Code(phys uint64) Result {
	res := Result{Slice: -1}
	hit, _, _, _ := h.L1I.Access(phys, false)
	res.Latency = h.L1I.Geom.Latency
	if hit {
		res.Level = 1
		return res
	}
	hit2, ev2, ev2Dirty, ev2Phys := h.L2.Access(phys, false)
	if ev2 && ev2Dirty {
		h.l2Writeback(ev2Phys)
	}
	res.Latency += h.L2.Geom.Latency
	if hit2 {
		res.Level = 2
		return res
	}
	slice := h.hash.Slice(phys)
	res.Slice = slice
	hit3, _, _, _ := h.L3[slice].Access(phys, false)
	res.Latency += h.L3[slice].Geom.Latency
	if hit3 {
		res.Level = 3
		return res
	}
	res.Level = 4
	res.Latency += h.memLatency
	return res
}

// Flush invalidates the entire hierarchy (WBINVD) and returns the number
// of lines that were valid, which determines the instruction's latency.
func (h *Hierarchy) Flush() int {
	n := h.L1I.InvalidateAll() + h.L1D.InvalidateAll() + h.L2.InvalidateAll()
	for _, c := range h.L3 {
		n += c.InvalidateAll()
	}
	h.Prefetcher.Reset()
	return n
}

// FlushLine removes the line containing phys from every level (CLFLUSH).
func (h *Hierarchy) FlushLine(phys uint64) {
	h.L1I.InvalidateLine(phys)
	h.L1D.InvalidateLine(phys)
	h.L2.InvalidateLine(phys)
	h.L3[h.hash.Slice(phys)].InvalidateLine(phys)
}

// LineSize returns the common line size of the hierarchy.
func (h *Hierarchy) LineSize() int { return h.lineSize }
