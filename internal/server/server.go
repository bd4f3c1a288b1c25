// Package server exposes the nanobench Session API over HTTP/JSON — the
// engine behind cmd/nanobenchd. The wire schema is documented in
// docs/API.md and enforced byte-for-byte by TestAPIDocGolden.
//
// Endpoints:
//
//	POST   /v1/run              evaluate one config on one CPU model and mode
//	POST   /v1/runbatch         evaluate a heterogeneous batch (mixed CPUs/modes)
//	POST   /v1/sweep            expand and evaluate a Sweep family; ?stream=1
//	                            delivers results progressively as NDJSON
//	POST   /v1/jobs             submit a run/runbatch/sweep asynchronously
//	GET    /v1/jobs/{id}        poll a job record
//	GET    /v1/jobs/{id}/result fetch a finished job's body; ?wait=1 long-polls
//	GET    /v1/jobs/{id}/events transition log; ?stream=1 follows live as NDJSON
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/healthz          liveness plus the CPU model catalog
//	GET    /v1/stats            cache counters, queue occupancy, session options
//	GET    /metrics             Prometheus text-format metrics
//
// The server multiplexes one Session per (CPU model, privilege mode)
// pair, opened lazily on first use; every session shares a single
// LRU-bounded result cache, so repeated evaluations — the dominant
// pattern when many clients probe the same instruction set — are served
// from memory. Each request runs under its own context.Context: a client
// that disconnects mid-sweep cancels the underlying evaluation, and the
// workers wind down after at most the benchmark run each was simulating.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nanobench"
	"nanobench/internal/jobs"
	"nanobench/internal/uarch"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBatch bounds the configs accepted per request.
	DefaultMaxBatch = 65536
	// DefaultMaxBodyBytes bounds the request body size.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultSweepShards is how many machines an asynchronous sweep job
	// keeps in flight per session.
	DefaultSweepShards = 4
)

// Options configures a Server. Session-shaped fields (Seed, Parallelism,
// WarmUp) apply uniformly to every session the server opens.
type Options struct {
	// Seed is the root seed every session derives per-job machine seeds
	// from. Zero is a valid root seed; cmd/nanobenchd defaults the flag
	// to nanobench.DefaultBatchSeed.
	Seed int64
	// Parallelism bounds each session's concurrently simulated machines
	// (0: runtime.NumCPU()).
	Parallelism int
	// WarmUp is the session-wide default warm-up count (see
	// nanobench.WithWarmUp).
	WarmUp int
	// CacheMaxEntries bounds the shared result cache (0: unbounded —
	// fine for tests, unwise for a long-running service).
	CacheMaxEntries int
	// MaxBatch bounds the number of configs a single request may carry
	// (0: DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes bounds the request body size (0: DefaultMaxBodyBytes).
	MaxBodyBytes int64

	// JobWorkers sizes the asynchronous job worker pool
	// (0: jobs.DefaultWorkers).
	JobWorkers int
	// JobQueueSize bounds the job admission queue; a full queue answers
	// 429 queue_full (0: jobs.DefaultQueueSize).
	JobQueueSize int
	// JobMaxWait is how long a submission may wait for a queue slot
	// before the 429 (0: fail fast).
	JobMaxWait time.Duration
	// JobTTL retains finished job records for result retrieval
	// (0: jobs.DefaultTTL).
	JobTTL time.Duration
	// SweepShards is how many machines per session an asynchronous sweep
	// job keeps in flight (Session.StreamSharded) — byte-identical to the
	// synchronous path at any value (0: DefaultSweepShards).
	SweepShards int

	// now overrides the job subsystem's clock; tests inject a
	// deterministic one.
	now func() int64
}

// Server is the HTTP front end. It is safe for concurrent use; create it
// with New and serve it like any http.Handler.
type Server struct {
	opts   Options
	cache  *nanobench.BatchCache
	mux    *http.ServeMux
	jobMgr *jobs.Manager

	mu       sync.Mutex
	sessions map[sessionKey]*nanobench.Session

	inflight atomic.Int64
	reqRun   atomic.Uint64
	reqBatch atomic.Uint64
	reqSweep atomic.Uint64
	reqJobs  atomic.Uint64
}

// sessionKey identifies one session of the pool: a canonical CPU model
// name and a privilege mode.
type sessionKey struct {
	cpu  string
	mode nanobench.Mode
}

// New builds a server with a fresh shared cache. The session options
// are validated eagerly by opening the default session (Skylake,
// kernel) into the pool: a misconfigured server fails here, at startup,
// instead of serving a healthy /v1/healthz and a 500 on every
// evaluation.
func New(opts Options) (*Server, error) {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.SweepShards <= 0 {
		opts.SweepShards = DefaultSweepShards
	}
	s := &Server{
		opts:     opts,
		cache:    nanobench.NewBatchCacheLRU(opts.CacheMaxEntries),
		mux:      http.NewServeMux(),
		sessions: make(map[sessionKey]*nanobench.Session),
	}
	if _, e := s.session("", ""); e != nil {
		return nil, fmt.Errorf("server: invalid options: %s", e.body.Message)
	}
	s.jobMgr = jobs.New(jobs.Options{
		Workers:   opts.JobWorkers,
		QueueSize: opts.JobQueueSize,
		MaxWait:   opts.JobMaxWait,
		TTL:       opts.JobTTL,
		Now:       opts.now,
	})
	s.mux.HandleFunc("/v1/run", s.handler(http.MethodPost, &s.reqRun, true, s.handleRun))
	s.mux.HandleFunc("/v1/runbatch", s.handler(http.MethodPost, &s.reqBatch, true, s.handleRunBatch))
	s.mux.HandleFunc("/v1/sweep", s.handler(http.MethodPost, &s.reqSweep, true, s.handleSweep))
	s.mux.HandleFunc("/v1/jobs", s.handler(http.MethodPost, &s.reqJobs, false, s.handleJobSubmit))
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/healthz", s.handler(http.MethodGet, nil, false, s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", s.handler(http.MethodGet, nil, false, s.handleStats))
	s.mux.HandleFunc("/metrics", s.handler(http.MethodGet, nil, false, s.handleMetrics))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errNotFound("no such endpoint: "+r.URL.Path))
	})
	return s, nil
}

// Shutdown drains the asynchronous job subsystem: admission closes
// (submissions answer 503 unavailable), jobs still queued are parked
// canceled, and running jobs are waited for until ctx expires — then
// their contexts are canceled and each winds down between benchmark
// runs. Call it after the HTTP listener stops accepting connections.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobMgr.Shutdown(ctx)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// InFlight returns the number of evaluation requests currently being
// served (run, runbatch, and sweep; health and stats don't count).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// session returns the pool's session for the (cpu, mode) wire names,
// opening it on first use. Empty names select the documented defaults
// ("Skylake", "kernel").
func (s *Server) session(cpuName, modeName string) (*nanobench.Session, *apiError) {
	if cpuName == "" {
		cpuName = "Skylake"
	}
	if modeName == "" {
		modeName = "kernel"
	}
	mode, err := nanobench.ParseMode(modeName)
	if err != nil {
		return nil, errInvalid(err.Error())
	}
	// Canonicalize the model name so "skylake" and "Skylake" share one
	// session, and unknown models fail before a session half-opens.
	cpu, err := uarch.ByName(cpuName)
	if err != nil {
		return nil, errInvalid(err.Error())
	}
	key := sessionKey{cpu: cpu.Name, mode: mode}

	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[key]; ok {
		return sess, nil
	}
	sess, err := nanobench.Open(
		nanobench.WithCPU(key.cpu),
		nanobench.WithMode(key.mode),
		nanobench.WithSeed(s.opts.Seed),
		nanobench.WithParallelism(s.opts.Parallelism),
		nanobench.WithWarmUp(s.opts.WarmUp),
		nanobench.WithCache(s.cache),
	)
	if err != nil {
		return nil, errInternal(err.Error())
	}
	s.sessions[key] = sess
	return sess, nil
}

// sessionKeys returns the open sessions' keys sorted by CPU name then
// mode, for deterministic /v1/stats output.
func (s *Server) sessionKeys() []sessionKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]sessionKey, 0, len(s.sessions))
	for k := range s.sessions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cpu != keys[j].cpu {
			return keys[i].cpu < keys[j].cpu
		}
		return keys[i].mode < keys[j].mode
	})
	return keys
}

// cpuCatalog lists the served machine models in catalog order.
func cpuCatalog() []string {
	models := uarch.Table1()
	names := make([]string, 0, len(models)+1)
	for _, c := range models {
		names = append(names, c.Name)
	}
	return append(names, uarch.Zen().Name)
}
