package sched

import (
	"context"
	"fmt"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/sim/machine"
)

// keyN builds n distinct content keys.
func keyN(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyOf(Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{
			Code: []byte{byte(i), byte(i >> 8)},
		}})
	}
	return keys
}

// resN builds a marker result distinguishable per index.
func resN(t *testing.T, i int) *nano.Result {
	t.Helper()
	var r nano.Result
	if err := r.UnmarshalJSON([]byte(fmt.Sprintf(`{"metrics":[{"name":"m","value":%d}]}`, i))); err != nil {
		t.Fatal(err)
	}
	return &r
}

func TestCacheLRUEvictsOldest(t *testing.T) {
	c := NewCacheLRU(2)
	keys := keyN(3)
	c.put(keys[0], resN(t, 0))
	c.put(keys[1], resN(t, 1))
	// Touch key 0 so key 1 is the LRU victim.
	if c.get(keys[0]) == nil {
		t.Fatal("key 0 missing before eviction")
	}
	c.put(keys[2], resN(t, 2))

	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.get(keys[1]) != nil {
		t.Error("LRU entry survived eviction")
	}
	if c.get(keys[0]) == nil || c.get(keys[2]) == nil {
		t.Error("recently used entries were evicted")
	}

	info := c.Info()
	if info.Evictions != 1 || info.Entries != 2 || info.MaxEntries != 2 {
		t.Errorf("Info = %+v, want 1 eviction, 2 entries, max 2", info)
	}
	// 4 hits (keys 0, 0, 2) minus the miss on the evicted key 1.
	if info.Hits != 3 || info.Misses != 1 {
		t.Errorf("Info = %+v, want 3 hits, 1 miss", info)
	}
}

func TestCacheLRUPutRefreshesAndReplaces(t *testing.T) {
	c := NewCacheLRU(2)
	keys := keyN(3)
	c.put(keys[0], resN(t, 0))
	c.put(keys[1], resN(t, 1))
	// Re-putting key 0 must replace in place (no growth) and refresh its
	// recency, making key 1 the next victim.
	c.put(keys[0], resN(t, 42))
	c.put(keys[2], resN(t, 2))

	if c.get(keys[1]) != nil {
		t.Error("key 1 should have been evicted")
	}
	got := c.get(keys[0])
	if got == nil {
		t.Fatal("key 0 evicted")
	}
	if v, ok := got.Get("m"); !ok || v != 42 {
		t.Errorf("re-put did not replace value: got %v", v)
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache()
	keys := keyN(100)
	for i, k := range keys {
		c.put(k, resN(t, i))
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	if info := c.Info(); info.Evictions != 0 || info.MaxEntries != 0 {
		t.Errorf("Info = %+v, want unbounded with no evictions", info)
	}
}

// TestRunRenderedStoresOnFirstHit walks one job through RunRendered:
// the miss renders and stores nothing, the first hit renders and stores
// the rendering, and later hits answer the stored bytes without
// rendering. Every call counts one lookup, and the rendering leaves the
// cache with its entry.
func TestRunRenderedStoresOnFirstHit(t *testing.T) {
	c := NewCacheLRU(1)
	exec := New(Options{Workers: 1, RootSeed: 7, Cache: c})
	job := Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{Code: nano.MustAsm("add rbx, rbx"), NMeasurements: 2}}
	renders := 0
	render := func(r *nano.Result) ([]byte, error) {
		renders++
		return r.MarshalJSON()
	}
	ctx := context.Background()
	want, err := New(Options{Workers: 1, RootSeed: 7}).RunContext(ctx, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want[0].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	var stored []byte
	for i, step := range []struct {
		hit     bool
		renders int
	}{{false, 1}, {true, 2}, {true, 2}, {true, 2}} {
		data, hit, err := exec.RunRendered(ctx, job, render)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(wantJSON) || hit != step.hit || renders != step.renders {
			t.Fatalf("call %d: hit %v after %d renders, data %s; want hit %v after %d renders, data %s",
				i, hit, renders, data, step.hit, step.renders, wantJSON)
		}
		if i == 1 {
			stored = data
		} else if i > 1 && &data[0] != &stored[0] {
			t.Errorf("call %d rendered anew instead of answering the stored bytes", i)
		}
		if hits, misses := c.Stats(); hits != uint64(i) || misses != 1 {
			t.Errorf("call %d: %d hits, %d misses; want %d, 1", i, hits, misses, i)
		}
	}

	// Evicting the entry drops its rendering: the job re-simulates.
	other := job
	other.Cfg.Code = nano.MustAsm("imul rbx, rbx")
	if _, err := exec.RunContext(ctx, []Job{other}); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := exec.RunRendered(ctx, job, render); err != nil || hit {
		t.Fatalf("after eviction: hit %v, err %v; want a miss", hit, err)
	}
}

// TestRunRenderedAliasLifecycle walks one job through RunRenderedAlias:
// the miss files no alias, the first hit files its alias with the
// rendering, AliasRendering then answers the stored bytes and counts one
// hit, a later stored hit files no second alias, and eviction drops the
// alias with its entry. A failed alias lookup counts nothing.
func TestRunRenderedAliasLifecycle(t *testing.T) {
	c := NewCacheLRU(1)
	exec := New(Options{Workers: 1, RootSeed: 7, Cache: c})
	job := Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{Code: nano.MustAsm("add rbx, rbx"), NMeasurements: 2}}
	render := func(r *nano.Result) ([]byte, error) { return r.MarshalJSON() }
	ctx := context.Background()
	alias, other := Key{1}, Key{2}
	lookups := func() uint64 {
		hits, misses := c.Stats()
		return hits + misses
	}

	if _, _, err := exec.RunRenderedAlias(ctx, job, &alias, render); err != nil {
		t.Fatal(err)
	}
	if c.AliasRendering(alias) != nil || lookups() != 1 {
		t.Fatalf("after the miss: an alias answered, or %d lookups counted, want 1", lookups())
	}
	stored, hit, err := exec.RunRenderedAlias(ctx, job, &alias, render)
	if err != nil || !hit {
		t.Fatalf("first hit: hit %v, err %v", hit, err)
	}
	got := c.AliasRendering(alias)
	if got == nil || &got[0] != &stored[0] {
		t.Fatalf("AliasRendering answered %s, want the stored rendering %s", got, stored)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("after an alias hit: %d hits, %d misses; want 2, 1", hits, misses)
	}
	if _, _, err := exec.RunRenderedAlias(ctx, job, &other, render); err != nil {
		t.Fatal(err)
	}
	if c.AliasRendering(other) != nil || lookups() != 4 {
		t.Fatalf("a stored hit filed its alias, or %d lookups counted, want 4", lookups())
	}

	evictor := job
	evictor.Cfg.Code = nano.MustAsm("imul rbx, rbx")
	if _, err := exec.RunContext(ctx, []Job{evictor}); err != nil {
		t.Fatal(err)
	}
	if c.AliasRendering(alias) != nil || len(c.aliases) != 0 {
		t.Fatalf("the alias outlived its evicted entry (%d aliases indexed)", len(c.aliases))
	}
	if lookups() != 5 {
		t.Fatalf("%d lookups counted, want 5", lookups())
	}
}
