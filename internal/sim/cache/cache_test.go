package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func testGeom(name string, size uint64, assoc, lat int) Geometry {
	return Geometry{Name: name, Size: size, Assoc: assoc, LineSize: 64, Latency: lat}
}

func newTestCache(t *testing.T, size uint64, assoc int, pol string) *Cache {
	t.Helper()
	c, err := New(testGeom("test", size, assoc, 4), 0, SimplePolicy(pol), 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidate(t *testing.T) {
	good := testGeom("L1", 32<<10, 8, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 64 {
		t.Fatalf("Sets() = %d, want 64", good.Sets())
	}
	bad := []Geometry{
		{Name: "x", Size: 32 << 10, Assoc: 8, LineSize: 60},
		{Name: "x", Size: 32 << 10, Assoc: 0, LineSize: 64},
		{Name: "x", Size: 33 << 10, Assoc: 8, LineSize: 64},
		{Name: "x", Size: 3 << 10, Assoc: 8, LineSize: 64}, // 6 sets: not pow2
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected error", g)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(t, 32<<10, 8, "LRU")
	hit, _, _, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	hit, _, _, _ = c.Access(0x103F, false)
	if !hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	hit, _, _, _ = c.Access(0x1040, false)
	if hit {
		t.Fatal("next-line access hit")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newTestCache(t, 32<<10, 8, "LRU") // 64 sets, stride 64*64 = 4096
	const stride = 4096
	// Fill set 0 with 8 lines plus one more; the first must be evicted.
	for i := 0; i < 9; i++ {
		hit, ev, _, evPhys := c.Access(uint64(i)*stride, false)
		if hit {
			t.Fatalf("fill %d hit", i)
		}
		if i == 8 {
			if !ev || evPhys != 0 {
				t.Fatalf("9th fill: evicted=%v phys=%#x, want block 0", ev, evPhys)
			}
		} else if ev {
			t.Fatalf("fill %d evicted unexpectedly", i)
		}
	}
	if c.Probe(0) {
		t.Fatal("block 0 still present after eviction")
	}
	if !c.Probe(stride) {
		t.Fatal("block 1 missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(t, 32<<10, 8, "LRU")
	c.Access(0x2000, true) // dirty
	present, dirty := c.InvalidateLine(0x2000)
	if !present || !dirty {
		t.Fatalf("InvalidateLine = %v, %v", present, dirty)
	}
	if c.Probe(0x2000) {
		t.Fatal("line still present")
	}
	c.Access(0x2000, false)
	c.Access(0x3000, false)
	if n := c.InvalidateAll(); n != 2 {
		t.Fatalf("InvalidateAll flushed %d lines, want 2", n)
	}
	if c.ValidLines() != 0 {
		t.Fatal("lines remain after InvalidateAll")
	}
}

func TestSliceHash(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		h := DefaultSliceHash(n)
		if h.Slices() != n {
			t.Fatalf("Slices() = %d, want %d", h.Slices(), n)
		}
		counts := make([]int, n)
		for a := uint64(0); a < 1<<20; a += 64 {
			s := h.Slice(a)
			if s < 0 || s >= n {
				t.Fatalf("slice %d out of range", s)
			}
			counts[s]++
		}
		if n > 1 {
			for s, c := range counts {
				if c == 0 {
					t.Fatalf("slice %d never selected", s)
				}
			}
		}
		// Deterministic.
		if h.Slice(0x12340) != h.Slice(0x12340) {
			t.Fatal("hash not deterministic")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for slice count 3")
		}
	}()
	DefaultSliceHash(3)
}

func defaultConfig() Config {
	return Config{
		L1I:            testGeom("L1I", 32<<10, 8, 4),
		L1D:            testGeom("L1D", 32<<10, 8, 4),
		L2:             testGeom("L2", 256<<10, 8, 8),
		L3:             testGeom("L3", 1<<20, 16, 26),
		L3Slices:       2,
		SliceHash:      DefaultSliceHash(2),
		MemLatency:     200,
		L1IPolicy:      SimplePolicy("PLRU"),
		L1DPolicy:      SimplePolicy("PLRU"),
		L2Policy:       SimplePolicy("PLRU"),
		L3Policy:       SimplePolicy("QLRU_H11_M1_R0_U0"),
		PrefetchDegree: 2,
	}
}

func newTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(defaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Prefetcher.Enabled = false
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := newTestHierarchy(t)
	r := h.Data(0x10000, false)
	if r.Level != 4 {
		t.Fatalf("cold access level = %d, want 4", r.Level)
	}
	if r.Latency != 4+8+26+200 {
		t.Fatalf("cold latency = %d", r.Latency)
	}
	if r.Slice < 0 {
		t.Fatal("cold access should consult an L3 slice")
	}
	r = h.Data(0x10000, false)
	if r.Level != 1 || r.Latency != 4 {
		t.Fatalf("warm access level=%d latency=%d", r.Level, r.Latency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newTestHierarchy(t)
	// Load a block, then evict it from L1 by filling its L1 set (64 sets,
	// 8 ways; L2 has 512 sets so stride 4096 maps to distinct L2 sets...
	// use stride of L1-set-size with varied L2 sets so only L1 conflicts).
	h.Data(0x0, false)
	for i := 1; i <= 8; i++ {
		h.Data(uint64(i)*4096, false)
	}
	r := h.Data(0x0, false)
	if r.Level != 2 {
		t.Fatalf("after L1 eviction, level = %d, want 2 (L2 hit)", r.Level)
	}
}

func TestHierarchyWriteback(t *testing.T) {
	h := newTestHierarchy(t)
	h.Data(0x0, true) // dirty in L1
	// Evict from L1 with 8 conflicting fills; the dirty line must be
	// written back into L2 and hit there afterwards.
	for i := 1; i <= 8; i++ {
		h.Data(uint64(i)*4096, false)
	}
	r := h.Data(0x0, false)
	if r.Level != 2 {
		t.Fatalf("written-back line: level = %d, want 2", r.Level)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := newTestHierarchy(t)
	h.Data(0x40, false)
	h.Data(0x80, false)
	if n := h.Flush(); n == 0 {
		t.Fatal("Flush reported zero lines")
	}
	r := h.Data(0x40, false)
	if r.Level != 4 {
		t.Fatalf("after WBINVD, level = %d, want 4", r.Level)
	}
}

func TestHierarchyFlushLine(t *testing.T) {
	h := newTestHierarchy(t)
	h.Data(0x40, false)
	h.FlushLine(0x40)
	if r := h.Data(0x40, false); r.Level != 4 {
		t.Fatalf("after CLFLUSH, level = %d, want 4", r.Level)
	}
}

func TestHierarchyCodePath(t *testing.T) {
	h := newTestHierarchy(t)
	r := h.Code(0x100000)
	if r.Level != 4 {
		t.Fatalf("cold fetch level = %d", r.Level)
	}
	r = h.Code(0x100000)
	if r.Level != 1 {
		t.Fatalf("warm fetch level = %d, want 1 (L1I)", r.Level)
	}
	// Code and data caches are separate: a data access to the same line
	// must miss the L1D.
	rd := h.Data(0x100000, false)
	if rd.Level == 1 {
		t.Fatal("data access hit L1 after only instruction fetches")
	}
}

func TestPrefetcherStream(t *testing.T) {
	h, err := NewHierarchy(defaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential misses within a page: the streamer should kick in.
	total := 0
	for i := 0; i < 8; i++ {
		r := h.Data(uint64(0x40*i), false)
		total += r.Prefetched
	}
	if total == 0 {
		t.Fatal("stream prefetcher never fired")
	}
	// A later sequential line should now hit in L2 (prefetched), after
	// evicting it from L1... it was never in L1, so a fresh line:
	r := h.Data(uint64(0x40*9), false)
	if r.Level > 2 {
		t.Fatalf("prefetched line served from level %d", r.Level)
	}

	// Disabled prefetcher must not prefetch.
	h2, _ := NewHierarchy(defaultConfig(), 1)
	h2.Prefetcher.Enabled = false
	total = 0
	for i := 0; i < 8; i++ {
		total += h2.Data(uint64(0x40*i), false).Prefetched
	}
	if total != 0 {
		t.Fatal("disabled prefetcher issued prefetches")
	}
}

func TestPrefetcherDescending(t *testing.T) {
	p := NewPrefetcher(1)
	base := uint64(0x10000)
	p.Observe(base+5*64, 64)
	p.Observe(base+4*64, 64)
	out := p.Observe(base+3*64, 64)
	if len(out) != 1 || out[0] != base+2*64 {
		t.Fatalf("descending prefetch = %#v", out)
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	cfg := defaultConfig()
	cfg.L3Slices = 4 // hash says 2
	if _, err := NewHierarchy(cfg, 1); err == nil {
		t.Error("expected slice/hash mismatch error")
	}
	cfg = defaultConfig()
	cfg.L2.LineSize = 128
	if _, err := NewHierarchy(cfg, 1); err == nil {
		t.Error("expected line-size mismatch error")
	}
}

// TestLazySetInitMatchesEager pins New's lazy set initialization — a new
// cache starts one epoch ahead, so ensure clears every set on its first
// touch — against eager initialization: the same cache with every tag
// written invalid up front and no set pending. Both must answer every
// operation identically and hold the same lines after it.
func TestLazySetInitMatchesEager(t *testing.T) {
	geom := testGeom("t", 32<<10, 8, 4)
	for _, name := range []string{"LRU", "FIFO", "PLRU", "MRU", "MRU*", "RANDOM", "QLRU_H11_M1_R0_U0", "QLRU_H00_M1_R2_U1"} {
		for seed := int64(1); seed <= 3; seed++ {
			lazy, err := New(geom, 0, SimplePolicy(name), seed)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := New(geom, 0, SimplePolicy(name), seed)
			if err != nil {
				t.Fatal(err)
			}
			eager.epoch = 0
			for i := range eager.tags {
				eager.tags[i] = invalidTag
			}
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 3000; op++ {
				// 64 sets × 12 tags, line 0 included: every set is first
				// touched at a different point of the stream, and sets
				// thrash. WBINVD is rare, so most sets run long on their
				// first-touch state.
				a, flag := uint64(rng.Intn(64*12))<<6, rng.Intn(4) == 0
				var got, want string
				switch r := rng.Intn(200); {
				case r < 120:
					got, want = fmt.Sprint(lazy.Access(a, flag)), fmt.Sprint(eager.Access(a, flag))
				case r < 150:
					got, want = fmt.Sprint(lazy.Fill(a, flag)), fmt.Sprint(eager.Fill(a, flag))
				case r < 170:
					got, want = fmt.Sprint(lazy.InvalidateLine(a)), fmt.Sprint(eager.InvalidateLine(a))
				case r < 199:
					got, want = fmt.Sprint(lazy.Probe(a)), fmt.Sprint(eager.Probe(a))
				default:
					got, want = fmt.Sprint(lazy.InvalidateAll()), fmt.Sprint(eager.InvalidateAll())
				}
				if got != want || lazy.ValidLines() != eager.ValidLines() {
					t.Fatalf("%s seed %d op %d at %#x: lazy %s (%d valid), eager %s (%d valid)",
						name, seed, op, a, got, lazy.ValidLines(), want, eager.ValidLines())
				}
				for i := range lazy.tags {
					if l, e := effectiveTag(lazy, i), effectiveTag(eager, i); l != e {
						t.Fatalf("%s seed %d op %d: line %d holds tag %#x, eager %#x", name, seed, op, i, l, e)
					}
				}
			}
		}
	}
}

// effectiveTag returns the tag line i holds: invalidTag if its set still
// waits for its epoch clear.
func effectiveTag(c *Cache, i int) uint64 {
	if c.setEpoch[i/c.assoc] != c.epoch {
		return invalidTag
	}
	return c.tags[i]
}
