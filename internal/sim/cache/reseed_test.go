package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nanobench/internal/sim/policy"
)

// TestEpochWrapKeepsSetsStale pins the epoch wraparound: a set last
// cleared 2^32 invalidations ago must not look current again when the
// cache-wide epoch wraps back to the value that set recorded.
func TestEpochWrapKeepsSetsStale(t *testing.T) {
	ops := map[string]func(c *Cache){
		"InvalidateAll": func(c *Cache) { c.InvalidateAll() },
		"Restream":      func(c *Cache) { c.Restream(0) },
	}
	for name, op := range ops {
		c := newTestCache(t, 32<<10, 8, "LRU")
		c.Access(0x1000, false)
		c.epoch = math.MaxUint32
		op(c)
		op(c)
		if c.Probe(0x1000) {
			t.Errorf("%s: line survived two invalidations across the epoch wrap", name)
		}
		if c.ValidLines() != 0 {
			t.Errorf("%s: %d valid lines after invalidation", name, c.ValidLines())
		}
	}
}

// reseedConfigs are small hierarchies whose every level misses often
// under a few hundred KiB of traffic, with policies that draw from their
// per-set RNG streams: RANDOM everywhere, and an L3 dueling between
// QLRU_H11_M1_R0_U0 and the randomized QLRU_H11_MR161_R0_U0. Each call
// builds fresh factories, so two hierarchies never share a PSEL.
var reseedConfigs = map[string]func() Config{
	"RANDOM": func() Config {
		cfg := reseedGeometry()
		cfg.L1IPolicy = SimplePolicy("RANDOM")
		cfg.L1DPolicy = SimplePolicy("RANDOM")
		cfg.L2Policy = SimplePolicy("RANDOM")
		cfg.L3Policy = SimplePolicy("RANDOM")
		return cfg
	},
	"QLRU_H11_MR161_R0_U0 dueling": func() Config {
		cfg := reseedGeometry()
		cfg.L3Policy = AdaptivePolicy(policy.DuelSpec{
			PolicyA: "QLRU_H11_M1_R0_U0",
			PolicyB: "QLRU_H11_MR161_R0_U0",
			PSel:    policy.NewPSel(64),
			Leader: func(slice, set int) byte {
				switch set % 8 {
				case 0:
					return 'A'
				case 1:
					return 'B'
				}
				return 0
			},
		})
		return cfg
	},
}

func reseedGeometry() Config {
	return Config{
		L1I:            testGeom("L1I", 4<<10, 4, 4),
		L1D:            testGeom("L1D", 4<<10, 4, 4),
		L2:             testGeom("L2", 16<<10, 4, 12),
		L3:             testGeom("L3", 64<<10, 16, 34),
		L3Slices:       2,
		SliceHash:      DefaultSliceHash(2),
		MemLatency:     200,
		L1IPolicy:      SimplePolicy("PLRU"),
		L1DPolicy:      SimplePolicy("PLRU"),
		L2Policy:       SimplePolicy("QLRU_H00_M1_R2_U1"),
		PrefetchDegree: 2,
	}
}

// reseedTraffic drives n seeded operations through h and returns what
// each one reported. A quarter of the accesses continue the previous
// line, so the stream prefetcher engages; the rest spread over 512 KiB,
// four times the L3. WBINVD is rare enough that every level fills up and
// its replacement policy decides.
func reseedTraffic(h *Hierarchy, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		a := uint64(rng.Intn(8192)) << 6
		if rng.Intn(4) == 0 {
			a = prev + 64
		}
		prev = a
		var r string
		switch op := rng.Intn(10000); {
		case op < 8000:
			r = fmt.Sprint(h.Data(a, op < 2000))
		case op < 9500:
			r = fmt.Sprint(h.Code(a))
		case op < 9999:
			h.FlushLine(a)
		default:
			r = fmt.Sprint(h.Flush())
		}
		out = append(out, r)
	}
	return out
}

// TestHierarchyReseedMatchesNew pins Reseed against a fresh build: after
// arbitrary traffic under another seed, with the PSEL saturated and the
// prefetcher switched off, a reseeded hierarchy answers a seeded access
// stream exactly as NewHierarchy(cfg, seed) does. The stream misses at
// every level, so each policy draws from many per-set RNG streams: a
// reseed that only invalidated the lines, and kept the streams derived
// from the old seed or the PSEL position, fails here.
func TestHierarchyReseedMatchesNew(t *testing.T) {
	for name, config := range reseedConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			used, err := NewHierarchy(config(), seed+100)
			if err != nil {
				t.Fatal(err)
			}
			reseedTraffic(used, seed+200, 20000)
			// Page-strided misses all land in set 0, an A leader: they
			// saturate a dueling PSEL, which Reseed must recentre.
			for i := uint64(0); i < 2000; i++ {
				used.Data(i<<12, false)
			}
			used.Prefetcher.Enabled = false
			used.Reseed(seed)

			fresh, err := NewHierarchy(config(), seed)
			if err != nil {
				t.Fatal(err)
			}
			got := reseedTraffic(used, seed, 20000)
			want := reseedTraffic(fresh, seed, 20000)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d op %d: reseeded %s, fresh %s", name, seed, i, got[i], want[i])
				}
			}
			for i, c := range append([]*Cache{used.L1I, used.L1D, used.L2}, used.L3...) {
				f := append([]*Cache{fresh.L1I, fresh.L1D, fresh.L2}, fresh.L3...)[i]
				if c.ValidLines() != f.ValidLines() {
					t.Errorf("%s seed %d: %s holds %d lines, fresh %d", name, seed, c.Geom.Name, c.ValidLines(), f.ValidLines())
				}
			}
		}
	}
}
