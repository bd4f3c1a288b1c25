package sched

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
)

// Key is the content address of one evaluation: a SHA-256 over the CPU
// name, privilege mode, big-area size, and the canonicalized
// configuration. An entry's alias (Executor.RunRenderedAlias) is a Key
// too: a caller's SHA-256 of the request bytes that named the job.
type Key [sha256.Size]byte

// KeyOf computes the content key of a job: everything that determines its
// result except the machine seed. The config is canonicalized first
// (nano.Config.Canonical) so that defaulted and explicit forms of the
// same evaluation collide.
//
// Every Job, Config, and EventSpec field participates in the hash; the
// field guard in sched_test.go fails when any of the structs grows a
// field this function does not yet cover.
func KeyOf(j Job) Key {
	cfg := j.Cfg.Canonical()
	h := sha256.New()
	writeString(h, j.CPU)
	writeUint(h, uint64(j.Mode))
	writeUint(h, j.BigArea)
	writeBytes(h, cfg.Code)
	writeBytes(h, cfg.CodeInit)
	writeUint(h, uint64(cfg.UnrollCount))
	writeUint(h, uint64(cfg.LoopCount))
	writeUint(h, uint64(cfg.NMeasurements))
	writeUint(h, uint64(cfg.WarmUpCount))
	writeUint(h, uint64(cfg.Aggregate))
	writeBool(h, cfg.BasicMode)
	writeBool(h, cfg.NoMem)
	writeUint(h, uint64(len(cfg.Events)))
	for _, ev := range cfg.Events {
		writeEvent(h, ev)
	}
	writeBool(h, cfg.UseBigArea)
	writeBool(h, cfg.DropSamples)
	var k Key
	h.Sum(k[:0])
	return k
}

// withSeed extends a content key with the derived machine seed, forming
// the cache key. Pinning the seed guarantees a cache hit returns exactly
// the value a cold evaluation of that (content, seed) pair would compute:
// the same job content at a different batch index gets a different seed,
// a different cache key, and a fresh simulation — never a stale result
// from another seed.
func withSeed(k Key, seed int64) Key {
	h := sha256.New()
	h.Write(k[:])
	writeUint(h, uint64(seed))
	var out Key
	h.Sum(out[:0])
	return out
}

func writeEvent(h hash.Hash, ev perfcfg.EventSpec) {
	writeUint(h, uint64(ev.Kind))
	writeUint(h, uint64(ev.EvtSel))
	writeUint(h, uint64(ev.Umask))
	writeString(h, ev.CBoEv)
	writeUint(h, uint64(ev.Addr))
	writeString(h, ev.Name)
}

// The writers length-prefix variable-sized fields so that adjacent fields
// can never alias ("ab"+"c" vs "a"+"bc").
func writeBytes(h hash.Hash, b []byte) {
	writeUint(h, uint64(len(b)))
	h.Write(b)
}

func writeString(h hash.Hash, s string) {
	writeUint(h, uint64(len(s)))
	h.Write([]byte(s))
}

func writeUint(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func writeBool(h hash.Hash, v bool) {
	if v {
		writeUint(h, 1)
	} else {
		writeUint(h, 0)
	}
}

// Cache memoizes evaluation results by content key, optionally bounded
// by a least-recently-used entry limit. It is safe for concurrent use;
// all accessors hand out deep copies, so cached values are immutable no
// matter what callers do with the results. An entry may also carry an
// opaque rendering of its result (Executor.RunRendered), which later
// lookups hand out shared instead of copying the result, and an alias
// under which AliasRendering finds that rendering.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*list.Element // values are *cacheEntry
	// aliases indexes the entries that carry an alias. It has no bound
	// or eviction of its own: an entry has at most one alias, which
	// leaves the index with its entry.
	aliases map[Key]*list.Element
	lru     *list.List // front = most recently used
	max     int        // 0: unbounded
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheEntry struct {
	key Key
	res *nano.Result
	// rendered is the rendering RunRendered attached on the entry's first
	// cache hit; nil until then. It leaves the cache with the entry.
	rendered []byte
	// alias is the key the call that attached rendered filed it under
	// (RunRenderedAlias), or nil; it leaves the cache with the entry.
	alias *Key
}

// NewCache builds an empty, unbounded result cache — the CLI default,
// where a cache lives for one sweep and eviction would only cost
// re-simulations.
func NewCache() *Cache { return NewCacheLRU(0) }

// NewCacheLRU builds an empty result cache bounded to at most maxEntries
// evaluations; storing past the bound evicts the least recently used
// entry (both lookups and stores refresh recency). maxEntries <= 0 means
// unbounded. Long-running shared caches — the nanobenchd server — should
// always set a bound.
func NewCacheLRU(maxEntries int) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{
		entries: make(map[Key]*list.Element),
		aliases: make(map[Key]*list.Element),
		lru:     list.New(),
		max:     maxEntries,
	}
}

// get returns the cached result for k, or nil. The caller must clone
// before handing the value out.
func (c *Cache) get(k Key) *nano.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[k]
	if el == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

// rendering returns the rendering attached to k's entry and counts a
// hit, like get. When k has no entry, or its entry no rendering, it
// returns nil and counts nothing: the caller's get counts the lookup.
// The bytes are shared; the caller must not modify them.
func (c *Cache) rendering(k Key) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[k]
	if el == nil || el.Value.(*cacheEntry).rendered == nil {
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).rendered
}

// AliasRendering returns the rendering filed under alias by
// Executor.RunRenderedAlias, counting one lookup as a hit and refreshing
// the entry's recency, exactly as the call that answered it from the
// rendering would have. When no cached entry carries alias it returns nil
// and counts nothing, so the caller's evaluation counts its one lookup.
// The bytes are shared; the caller must not modify them.
func (c *Cache) AliasRendering(alias Key) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.aliases[alias]
	if el == nil {
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).rendered
}

// attach stores rendered on k's entry and, when alias is non-nil, files
// the entry under *alias in place of its earlier alias. It does nothing
// when k has been evicted meanwhile, and it neither counts a lookup nor
// refreshes recency.
func (c *Cache) attach(k Key, rendered []byte, alias *Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[k]
	if el == nil {
		return
	}
	el.Value.(*cacheEntry).rendered = rendered
	if alias != nil {
		c.dropAlias(el)
		a := *alias
		el.Value.(*cacheEntry).alias = &a
		c.aliases[a] = el
	}
}

// dropAlias removes el's alias, if any, from the entry and the index.
// The caller holds c.mu.
func (c *Cache) dropAlias(el *list.Element) {
	if ent := el.Value.(*cacheEntry); ent.alias != nil {
		delete(c.aliases, *ent.alias)
		ent.alias = nil
	}
}

// put stores a private copy of r under k, evicting the least recently
// used entry when the bound is exceeded.
func (c *Cache) put(k Key, r *nano.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = r.Clone()
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, res: r.Clone()})
	if c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.dropAlias(oldest)
		c.evicted++
	}
}

// Len returns the number of cached evaluations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the lookup hit and miss counts so far.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheInfo is a point-in-time snapshot of a cache's occupancy and
// lookup counters — the instrumentation behind the server's /v1/stats.
type CacheInfo struct {
	// Hits and Misses count lookups so far.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached evaluations; Evictions
	// counts entries dropped by the LRU bound.
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
	// MaxEntries is the LRU bound (0: unbounded).
	MaxEntries int `json:"max_entries"`
}

// Info returns a consistent snapshot of the cache's counters.
func (c *Cache) Info() CacheInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheInfo{
		Hits:       c.hits,
		Misses:     c.misses,
		Entries:    len(c.entries),
		Evictions:  c.evicted,
		MaxEntries: c.max,
	}
}
