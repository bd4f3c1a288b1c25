package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// A /v1/run body that an earlier request answered from a stored
// rendering is answered from that rendering before it is decoded: the
// run that stored the rendering filed it under the body's SHA-256. These
// tests pin the alias path: its replies are a fresh server's bytes, only
// byte-identical bodies take it, it leaves with its cache entry, errors
// never take it, and the cache counters move as they do without it.

// newAliasServer builds a server and serves it on a test listener; the
// tests read the server's cache directly for the aliases it holds.
func newAliasServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := newServer(t, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// hasAlias reports whether body's digest names a stored rendering. A
// found alias counts one cache hit, as a request answered by it does.
func hasAlias(srv *Server, body string) bool {
	return srv.cache.AliasRendering(sha256.Sum256([]byte(body))) != nil
}

// reindented returns body re-indented with tabs: the same request in
// different bytes.
func reindented(t *testing.T, body string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, []byte(body), "", "\t"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// reordered returns body compacted with its top-level and config fields
// in sorted order: the same request in different bytes.
func reordered(t *testing.T, body string) string {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(top["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	var err error
	if top["config"], err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunAliasMatchesFreshServer checks, for each rendered case, that
// the replies served by the body's alias equal the miss, first-hit and
// stored-hit replies of a fresh server byte for byte, and that a body
// sent once stores no alias while the first hit stores one. Every
// request counts one cache lookup.
func TestRunAliasMatchesFreshServer(t *testing.T) {
	for _, tc := range renderedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			// The fresh server's stored hit comes through the decode path:
			// a re-indented body has no alias.
			fresh := newTestServer(t, Options{Seed: 42})
			want := [][]byte{postRun(t, fresh, tc.body), postRun(t, fresh, tc.body), postRun(t, fresh, reindented(t, tc.body))}

			srv, ts := newAliasServer(t, Options{Seed: 42})
			postRun(t, ts, tc.body)
			if hasAlias(srv, tc.body) {
				t.Fatal("a body sent once has an alias")
			}
			postRun(t, ts, tc.body)
			if !hasAlias(srv, tc.body) {
				t.Fatal("the first hit stored no alias for its body")
			}
			before := cacheInfo(t, ts)
			for i := 0; i < 3; i++ {
				got := postRun(t, ts, tc.body)
				for leg, w := range want {
					if !bytes.Equal(got, w) {
						t.Fatalf("alias reply %d differs from the fresh server's reply %d:\ngot:  %s\nwant: %s", i, leg, got, w)
					}
				}
			}
			if c := cacheInfo(t, ts); c.Hits != before.Hits+3 || c.Misses != before.Misses || c.Entries != 1 {
				t.Errorf("three alias hits moved the cache from %+v to %+v, want 3 more hits", before, c)
			}
		})
	}
}

// TestRunAliasNeedsIdenticalBytes sends the same request in other bytes
// (re-indented, fields reordered) after its body's alias is stored: each
// is decoded, answers the same bytes through the stored rendering, counts
// one hit, and acquires no alias of its own.
func TestRunAliasNeedsIdenticalBytes(t *testing.T) {
	for _, tc := range renderedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newAliasServer(t, Options{Seed: 42})
			want := postRun(t, ts, tc.body)
			postRun(t, ts, tc.body) // the first hit stores the rendering and the alias
			for _, variant := range []string{reindented(t, tc.body), reordered(t, tc.body)} {
				if variant == tc.body {
					t.Fatalf("variant is the original body: %s", variant)
				}
				before := cacheInfo(t, ts)
				for i := 0; i < 2; i++ {
					if got := postRun(t, ts, variant); !bytes.Equal(got, want) {
						t.Fatalf("variant reply differs:\ngot:  %s\nwant: %s\nvariant: %s", got, want, variant)
					}
				}
				if c := cacheInfo(t, ts); c.Hits != before.Hits+2 || c.Misses != before.Misses {
					t.Errorf("two variant requests moved the cache from %+v to %+v, want 2 more hits", before, c)
				}
				if hasAlias(srv, variant) {
					t.Errorf("variant body acquired an alias: %s", variant)
				}
			}
		})
	}
}

// TestRunAliasEvictionNeverStale bounds the cache to one entry and
// alternates two bodies after the first has stored its alias: every
// request evicts the other body's entry, alias included, so each is a
// miss and answers its own bytes.
func TestRunAliasEvictionNeverStale(t *testing.T) {
	a := `{"config": {"asm": "add rax, rbx", "n_measurements": 3}}`
	b := `{"config": {"asm": "imul rax, rbx", "n_measurements": 3}}`
	fresh := newTestServer(t, Options{Seed: 42})
	want := map[string][]byte{a: postRun(t, fresh, a), b: postRun(t, fresh, b)}

	srv, ts := newAliasServer(t, Options{Seed: 42, CacheMaxEntries: 1})
	postRun(t, ts, a)
	postRun(t, ts, a) // the first hit stores a's rendering and alias
	if !hasAlias(srv, a) {
		t.Fatal("the first hit stored no alias")
	}
	before := cacheInfo(t, ts)
	for i, body := range []string{b, a, b, a, b, a} {
		if got := postRun(t, ts, body); !bytes.Equal(got, want[body]) {
			t.Fatalf("request %d answered another body's bytes:\ngot:  %s\nwant: %s", i, got, want[body])
		}
		c := cacheInfo(t, ts)
		if n := uint64(i + 1); c.Misses != before.Misses+n || c.Hits != before.Hits || c.Evictions != before.Evictions+n {
			t.Fatalf("request %d was not a miss: cache %+v, before the alternation %+v", i, c, before)
		}
	}
	if hasAlias(srv, a) || hasAlias(srv, b) {
		t.Error("an alias outlived its evicted entry")
	}
}

// TestRunAliasNeverOnErrors sends each failing body three times: every
// reply has the same status and bytes, no body acquires an alias, and
// only the body that fails in evaluation counts lookups (one miss each).
func TestRunAliasNeverOnErrors(t *testing.T) {
	cases := []struct {
		name, body string
		status     int
		misses     uint64
	}{
		{"bad json", `{"config":`, http.StatusBadRequest, 0},
		{"unknown field", `{"config": {"asm": "nop", "unrol_count": 5}}`, http.StatusBadRequest, 0},
		{"cost limit", `{"config": {"asm": "nop", "n_measurements": 200000}}`, http.StatusUnprocessableEntity, 0},
		{"unknown cpu", `{"cpu": "Pentium", "config": {"asm": "nop"}}`, http.StatusUnprocessableEntity, 0},
		{"evaluation failure", `{"config": {"asm": "nop", "unroll_count": 2000000000}}`, http.StatusUnprocessableEntity, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newAliasServer(t, Options{Seed: 42})
			var first []byte
			for i := 0; i < 3; i++ {
				status, reply := post(t, ts, "/v1/run", tc.body)
				if status != tc.status {
					t.Fatalf("request %d: status %d, want %d: %s", i, status, tc.status, reply)
				}
				if i == 0 {
					first = reply
				} else if !bytes.Equal(reply, first) {
					t.Fatalf("request %d failed differently:\ngot:  %s\nwant: %s", i, reply, first)
				}
			}
			if c := cacheInfo(t, ts); c.Hits != 0 || c.Misses != 3*tc.misses || c.Entries != 0 {
				t.Errorf("cache %+v, want no hits and %d misses", c, 3*tc.misses)
			}
			if hasAlias(srv, tc.body) {
				t.Error("a failing body acquired an alias")
			}
		})
	}
}

// TestRunAliasConcurrent sends one body from 8 goroutines, 4 times each,
// starting cold, so the miss, first hits and alias hits overlap; every
// reply must be a fresh server's bytes, and the 32 requests must count
// 32 lookups (run it under -race).
func TestRunAliasConcurrent(t *testing.T) {
	body := string(throughputRunBody(t, 2))
	want := postRun(t, newTestServer(t, Options{Seed: 42}), body)
	srv, ts := newAliasServer(t, Options{Seed: 42, Parallelism: 2})
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
		if !bytes.Equal(got, want) {
			t.Fatalf("reply %d differs from a fresh server's:\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	if c := cacheInfo(t, ts); c.Hits+c.Misses != clients*rounds || c.Entries != 1 {
		t.Errorf("cache %+v, want %d lookups on 1 entry", c, clients*rounds)
	}
	if !hasAlias(srv, body) {
		t.Error("no alias after 32 requests of one body")
	}
}
