package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"nanobench"
	"nanobench/client"
	"nanobench/internal/instbench"
	"nanobench/internal/x86"
)

// The HTTP layer's own benchmarks: one /v1/run through Server.ServeHTTP
// into an httptest recorder, so decoding, evaluation and rendering are
// measured without a socket. The config is an instbench throughput
// config (ADD r64, r64 with the eight port counters and the µop count:
// twelve metrics of ten samples each), the shape of nbbench's
// serve-mixed hot set, on a server with serve-mixed's settings.

// benchServer builds a server with the serve-mixed settings.
func benchServer(b *testing.B) *Server {
	return newServer(b, Options{Seed: nanobench.DefaultBatchSeed, Parallelism: 2, CacheMaxEntries: 4096, JobWorkers: 1})
}

// throughputRunBody renders a /v1/run request for the ADD r64, r64
// throughput config, tagged with "mov r13, tag" in its init code: a
// distinct tag is a distinct content key with the same measurement.
func throughputRunBody(tb testing.TB, tag int) []byte {
	tb.Helper()
	cfg, err := instbench.ThroughputConfig(instbench.Variant{Op: x86.ADD, Form: instbench.FormRR})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.CodeInit = append(cfg.CodeInit, nanobench.MustAsm(fmt.Sprintf("mov r13, %d", tag))...)
	body, err := json.Marshal(client.RunRequest{Config: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveRun sends one /v1/run through ServeHTTP and returns the reply.
func serveRun(b *testing.B, srv *Server, body []byte) []byte {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("/v1/run: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// BenchmarkServeRunHit is a hot /v1/run: every iteration repeats a
// request the server has answered twice before (a miss and a first hit).
func BenchmarkServeRunHit(b *testing.B) {
	srv := benchServer(b)
	body := throughputRunBody(b, 1)
	want := serveRun(b, srv, body)
	serveRun(b, srv, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := serveRun(b, srv, body); len(got) != len(want) {
			b.Fatalf("hit reply is %d bytes, the miss's %d", len(got), len(want))
		}
	}
}

// BenchmarkServeRunMiss is a fresh /v1/run: every iteration sends a
// config no cache holds, so it simulates.
func BenchmarkServeRunMiss(b *testing.B) {
	srv := benchServer(b)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = throughputRunBody(b, i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveRun(b, srv, bodies[i])
	}
}
