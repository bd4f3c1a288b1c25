package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"nanobench"
	"nanobench/client"
)

func newServer(t testing.TB, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // second Shutdown in a test is a harmless error
	})
	return srv
}

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(t, opts))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// errorCode extracts the envelope's machine-readable code.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var envelope client.ErrorResponse
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, body)
	}
	if envelope.Error.Code == "" || envelope.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", body)
	}
	return envelope.Error.Code
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, body := get(t, ts, "/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var h struct {
		Status string   `json:"status"`
		CPUs   []string `json:"cpus"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.CPUs) < 10 {
		t.Errorf("healthz = %+v, want ok with the full CPU catalog", h)
	}
}

func TestRunMatchesSession(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})
	status, body := post(t, ts, "/v1/run",
		`{"cpu": "Skylake", "mode": "kernel", "config": {"asm": "add rax, rbx", "n_measurements": 3}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		CPU    string          `json:"cpu"`
		Mode   string          `json:"mode"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CPU != "Skylake" || resp.Mode != "kernel" {
		t.Errorf("echoed session = %s/%s", resp.CPU, resp.Mode)
	}

	// The served result must be byte-identical to what a local session
	// with the same options computes.
	sess, err := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(context.Background(), nanobench.Config{
		Code:          nanobench.MustAsm("add rax, rbx"),
		NMeasurements: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, resp.Result); err != nil {
		t.Fatal(err)
	}
	if compacted.String() != string(wantJSON) {
		t.Errorf("served result differs from local session:\nserved: %s\nlocal:  %s", compacted.String(), wantJSON)
	}
}

func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, Options{MaxBatch: 4, MaxBodyBytes: 1 << 20})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"malformed json", "POST", "/v1/run", `{"config":`, 400, "bad_request"},
		{"unknown request field", "POST", "/v1/run", `{"cfg": {}}`, 400, "bad_request"},
		{"unknown config field", "POST", "/v1/run", `{"config": {"unrol_count": 5}}`, 400, "bad_request"},
		{"trailing garbage", "POST", "/v1/run", `{"config": {"asm": "nop"}} extra`, 400, "bad_request"},
		{"empty config", "POST", "/v1/run", `{"config": {}}`, 422, "invalid_argument"},
		{"asm and code", "POST", "/v1/run", `{"config": {"asm": "nop", "code": "kA=="}}`, 400, "bad_request"},
		{"unknown cpu", "POST", "/v1/run", `{"cpu": "Pentium", "config": {"asm": "nop"}}`, 422, "invalid_argument"},
		{"unknown mode", "POST", "/v1/run", `{"mode": "hypervisor", "config": {"asm": "nop"}}`, 422, "invalid_argument"},
		{"bad asm", "POST", "/v1/run", `{"config": {"asm": "not an instruction"}}`, 400, "bad_request"},
		{"run wrong method", "GET", "/v1/run", ``, 405, "method_not_allowed"},
		{"empty batch", "POST", "/v1/runbatch", `{"jobs": []}`, 422, "invalid_argument"},
		{"batch job cpu", "POST", "/v1/runbatch", `{"jobs": [{"cpu": "Pentium", "config": {"asm": "nop"}}]}`, 422, "invalid_argument"},
		{"batch too large", "POST", "/v1/runbatch",
			`{"jobs": [` + strings.Repeat(`{"config": {"asm": "nop"}},`, 4) + `{"config": {"asm": "nop"}}]}`, 422, "invalid_argument"},
		{"run count cap", "POST", "/v1/run", `{"config": {"asm": "nop", "n_measurements": 200000}}`, 422, "invalid_argument"},
		{"unroll bomb", "POST", "/v1/run", `{"config": {"asm": "nop", "unroll_count": 2000000000}}`, 422, "evaluation_failed"},
		{"sweep run count cap", "POST", "/v1/sweep", `{"sweep": {"base": {"n_measurements": 200000}, "asm": ["nop"]}}`, 422, "invalid_argument"},
		{"empty sweep", "POST", "/v1/sweep", `{"sweep": {}}`, 422, "invalid_argument"},
		{"missing sweep", "POST", "/v1/sweep", `{}`, 422, "invalid_argument"},
		{"null sweep", "POST", "/v1/sweep?stream=1", `{"sweep": null}`, 422, "invalid_argument"},
		{"sweep bad asm", "POST", "/v1/sweep", `{"sweep": {"asm": ["not an instruction"]}}`, 422, "invalid_argument"},
		{"sweep too large", "POST", "/v1/sweep", `{"sweep": {"asm": ["nop"], "unrolls": [1,2,3,4,5]}}`, 422, "invalid_argument"},
		{"healthz wrong method", "POST", "/v1/healthz", ``, 405, "method_not_allowed"},
		{"stats wrong method", "POST", "/v1/stats", ``, 405, "method_not_allowed"},
		{"unknown path", "GET", "/v2/run", ``, 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if code := errorCode(t, body); code != tc.wantCode {
				t.Errorf("error code %q, want %q", code, tc.wantCode)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	ts := newTestServer(t, Options{MaxBodyBytes: 256})
	big := `{"config": {"asm": "nop", "events": ["` + strings.Repeat("A", 512) + ` X"]}}`
	status, body := post(t, ts, "/v1/run", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", status, body)
	}
	if code := errorCode(t, body); code != "request_too_large" {
		t.Errorf("error code %q", code)
	}
}

func TestRunBatchHeterogeneous(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 7})
	status, body := post(t, ts, "/v1/runbatch", `{"jobs": [
		{"cpu": "Skylake", "config": {"asm": "add rax, rbx", "n_measurements": 3}},
		{"cpu": "Haswell", "mode": "user", "config": {"asm": "imul rax, rbx", "n_measurements": 3}},
		{"cpu": "Skylake", "config": {"asm": "add rax, rbx", "n_measurements": 3}}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Results []struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Error != nil || r.Result == nil {
			t.Errorf("result %d: error=%s result=%s", i, r.Error, r.Result)
		}
	}
	for i := range resp.Results {
		var res nanobench.Result
		if err := json.Unmarshal(resp.Results[i].Result, &res); err != nil {
			t.Fatalf("result %d does not parse as a Result: %v", i, err)
		}
		if _, ok := res.Get("Core cycles"); !ok {
			t.Errorf("result %d has no Core cycles metric", i)
		}
	}
	// Jobs 0 and 2 are identical content in the same session group, so
	// the scheduler deduplicates them into one evaluation (seeded at the
	// lowest index) — the wire results must be byte-identical.
	if !bytes.Equal(resp.Results[0].Result, resp.Results[2].Result) {
		t.Errorf("identical jobs 0 and 2 were not served one deduplicated evaluation:\n%s\n%s",
			resp.Results[0].Result, resp.Results[2].Result)
	}
}

// sweepBody is a 2-benchmark × 2-unroll sweep request used by the
// stream/non-stream comparison tests.
const sweepBody = `{"sweep": {
	"base": {"n_measurements": 3},
	"asm": ["add rax, rbx", "imul rax, rbx"],
	"unrolls": [10, 100]
}}`

func TestSweepStreamMatchesNonStreamed(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})

	status, streamed := post(t, ts, "/v1/sweep?stream=1", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, streamed)
	}
	status, plain := post(t, ts, "/v1/sweep", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("non-stream status %d: %s", status, plain)
	}

	var resp struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(plain, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || len(resp.Results) != 4 {
		t.Fatalf("count %d with %d results, want 4", resp.Count, len(resp.Results))
	}

	lines := bytes.Split(bytes.TrimSuffix(streamed, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("stream delivered %d lines, want 4:\n%s", len(lines), streamed)
	}
	// Each NDJSON line must be byte-identical to the corresponding
	// non-streamed item after compaction (the enveloped form is pretty-
	// printed, the stream compact; same marshaller, same key order).
	for i, raw := range resp.Results {
		var compacted bytes.Buffer
		if err := json.Compact(&compacted, raw); err != nil {
			t.Fatal(err)
		}
		if compacted.String() != string(lines[i]) {
			t.Errorf("item %d differs:\nstream:     %s\nnon-stream: %s", i, lines[i], compacted.String())
		}
	}
}

func TestSweepClientDisconnectCancels(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newServer(t, Options{Parallelism: 1, Seed: 42})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Config 0 is light, the rest heavy, on one worker: the first NDJSON
	// line arrives while seconds of simulation remain, so cancelling
	// after reading it always lands mid-sweep.
	loops := "20"
	for i := 1; i < 8; i++ {
		loops += fmt.Sprintf(",%d", 1500+2*i)
	}
	body := `{"sweep": {"base": {"asm": "add rax, rbx"}, "loops": [` + loops + `]}}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep?stream=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Progressive delivery: the first result is readable while the tail
	// of the sweep is still simulating.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first struct {
		Index  int             `json:"index"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Bytes(), err)
	}
	if first.Index != 0 || first.Result == nil {
		t.Fatalf("first line = %s", sc.Bytes())
	}

	// Disconnect. The server must cancel the underlying sweep: in-flight
	// drops to zero and the goroutine count returns to baseline far
	// sooner than the seconds the full sweep would need.
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for srv.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d requests still in flight after disconnect", n)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	// The job workers are part of the baseline-goroutine accounting too:
	// drain them before comparing against the pre-server count.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after disconnect drain", before, now)
	}
}

func TestStatsCountersMove(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42, Parallelism: 2, CacheMaxEntries: 128})

	readStats := func() (s struct {
		Sessions []struct{ CPU, Mode string }
		Cache    struct {
			Hits, Misses, Evictions uint64
			Entries, MaxEntries     int
		}
		InFlight int64 `json:"inflight"`
		Requests struct{ Run, RunBatch, Sweep uint64 }
		Options  struct {
			Seed            int64
			Parallelism     int
			WarmUpCount     int `json:"warm_up_count"`
			CacheMaxEntries int `json:"cache_max_entries"`
		}
	}) {
		t.Helper()
		status, body := get(t, ts, "/v1/stats")
		if status != http.StatusOK {
			t.Fatalf("stats status %d: %s", status, body)
		}
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A fresh server has already opened (only) the default session —
	// New validates the session options through it.
	s0 := readStats()
	if len(s0.Sessions) != 1 || s0.Cache.Misses != 0 || s0.Requests.Run != 0 {
		t.Errorf("fresh server stats: %+v", s0)
	}
	if s0.Options.Seed != 42 || s0.Options.Parallelism != 2 || s0.Options.CacheMaxEntries != 128 {
		t.Errorf("options not echoed: %+v", s0.Options)
	}

	runBody := `{"config": {"asm": "add rax, rbx", "n_measurements": 3}}`
	if status, body := post(t, ts, "/v1/run", runBody); status != 200 {
		t.Fatalf("run status %d: %s", status, body)
	}
	s1 := readStats()
	if s1.Requests.Run != 1 || s1.Cache.Misses != 1 || s1.Cache.Entries != 1 || s1.Cache.Hits != 0 {
		t.Errorf("after first run: %+v", s1)
	}
	if len(s1.Sessions) != 1 || s1.Sessions[0].CPU != "Skylake" || s1.Sessions[0].Mode != "kernel" {
		t.Errorf("sessions after first run: %+v", s1.Sessions)
	}

	// The identical request is a cache hit and must not re-simulate.
	if status, body := post(t, ts, "/v1/run", runBody); status != 200 {
		t.Fatalf("second run status %d: %s", status, body)
	}
	s2 := readStats()
	if s2.Requests.Run != 2 || s2.Cache.Hits != 1 || s2.Cache.Entries != 1 {
		t.Errorf("after cached run: %+v", s2)
	}
	if s2.InFlight != 0 {
		t.Errorf("inflight = %d at rest", s2.InFlight)
	}
}
