package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nanobench"
)

// A repeated /v1/run answers the bytes its result's first cache hit
// rendered (Session.RunRendered). These tests pin that contract: the
// stored bytes are exactly what a fresh server renders, they leave with
// their cache entry, concurrent requests agree, and the cache counters
// move exactly as they do when every hit renders anew.

// renderedCases are the /v1/run shapes the contract is checked on: a
// twelve-metric instbench throughput config, a drop_samples config and a
// Haswell user-mode session.
func renderedCases(t *testing.T) []struct{ name, body string } {
	return []struct{ name, body string }{
		{"throughput", string(throughputRunBody(t, 1))},
		{"drop_samples", `{"config": {"asm": "mov R14, [R14]", "asm_init": "mov [R14], R14",
			"n_measurements": 3, "warm_up_count": 1, "drop_samples": true}}`},
		{"haswell_user", `{"cpu": "Haswell", "mode": "user", "config": {"asm": "imul rax, rbx",
			"n_measurements": 5, "events": ["A1.01 PORT_0", "A1.02 PORT_1"]}}`},
	}
}

// cacheInfo reads the shared result cache's counters from /v1/stats.
func cacheInfo(t *testing.T, ts *httptest.Server) nanobench.BatchCacheInfo {
	t.Helper()
	status, body := get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d: %s", status, body)
	}
	var stats struct {
		Cache nanobench.BatchCacheInfo `json:"cache"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	return stats.Cache
}

// postRun posts a /v1/run body and requires a 200.
func postRun(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	status, reply := post(t, ts, "/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("/v1/run status %d: %s", status, reply)
	}
	return reply
}

// TestRunRenderedHitsMatchFreshServer sends each case three times — the
// miss, the first hit (which renders and stores the rendering) and a
// stored hit (which answers the stored bytes) — and requires all three
// replies to equal a fresh server's reply byte for byte, with one cache
// lookup counted per request.
func TestRunRenderedHitsMatchFreshServer(t *testing.T) {
	for _, tc := range renderedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := postRun(t, newTestServer(t, Options{Seed: 42}), tc.body)
			ts := newTestServer(t, Options{Seed: 42})
			for i, leg := range []string{"miss", "first hit", "stored hit"} {
				if got := postRun(t, ts, tc.body); !bytes.Equal(got, want) {
					t.Fatalf("%s reply differs from a fresh server's:\ngot:  %s\nwant: %s", leg, got, want)
				}
				if c := cacheInfo(t, ts); c.Misses != 1 || c.Hits != uint64(i) || c.Entries != 1 {
					t.Errorf("after the %s: cache %+v, want 1 miss, %d hits, 1 entry", leg, c, i)
				}
			}
		})
	}
}

// TestRunRenderedEvictionNeverStale bounds the cache to one entry and
// alternates two configs after the first has stored a rendering: every
// request evicts the other config's entry, rendering included, so each
// re-simulates and answers its own bytes.
func TestRunRenderedEvictionNeverStale(t *testing.T) {
	a := `{"config": {"asm": "add rax, rbx", "n_measurements": 3}}`
	b := `{"config": {"asm": "imul rax, rbx", "n_measurements": 3}}`
	fresh := newTestServer(t, Options{Seed: 42})
	want := map[string][]byte{a: postRun(t, fresh, a), b: postRun(t, fresh, b)}

	ts := newTestServer(t, Options{Seed: 42, CacheMaxEntries: 1})
	postRun(t, ts, a)
	postRun(t, ts, a) // the first hit stores a's rendering
	before := cacheInfo(t, ts)
	for i, body := range []string{b, a, b, a, b, a} {
		if got := postRun(t, ts, body); !bytes.Equal(got, want[body]) {
			t.Fatalf("request %d answered another config's bytes:\ngot:  %s\nwant: %s", i, got, want[body])
		}
		c := cacheInfo(t, ts)
		if n := uint64(i + 1); c.Misses != before.Misses+n || c.Hits != before.Hits || c.Evictions != before.Evictions+n {
			t.Fatalf("request %d did not re-simulate: cache %+v, before the alternation %+v", i, c, before)
		}
	}
}

// TestRunRenderedConcurrent sends one body from 8 goroutines at once,
// several times each, so misses, first hits and stored hits overlap;
// every reply must be the same bytes (run it under -race).
func TestRunRenderedConcurrent(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42, Parallelism: 2})
	body := string(throughputRunBody(t, 1))
	const clients, rounds = 8, 4
	replies := make([][]byte, clients*rounds)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errs[c] = err
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				}
				if err != nil {
					errs[c] = err
					return
				}
				replies[c*rounds+r] = buf.Bytes()
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for i, got := range replies {
		if !bytes.Equal(got, replies[0]) {
			t.Fatalf("reply %d differs from reply 0:\n%s\n%s", i, got, replies[0])
		}
	}
	if c := cacheInfo(t, ts); c.Hits+c.Misses != clients*rounds || c.Entries != 1 {
		t.Errorf("cache %+v, want %d lookups on 1 entry", c, clients*rounds)
	}
}
