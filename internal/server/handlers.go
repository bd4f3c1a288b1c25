package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"nanobench"
	"nanobench/client"
)

// handler wraps an endpoint with the shared request plumbing: the
// method gate (anything else gets the method_not_allowed envelope), the
// per-endpoint request counter, and — for endpoints that evaluate
// inline — the in-flight gauge.
func (s *Server) handler(method string, counter *atomic.Uint64, evaluates bool, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, errMethod(method+" required"))
			return
		}
		if counter != nil {
			counter.Add(1)
		}
		if evaluates {
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
		}
		fn(w, r)
	}
}

// handleRun answers a body that already named a stored rendering — the
// body of an earlier request answered from the cache — with those bytes,
// before decoding it: the body's SHA-256 is the alias its run filed the
// rendering under. Any other body is decoded and evaluated, and its
// run files the rendering under the body's alias when it stores one.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, e := readBody(r)
	if e != nil {
		writeError(w, e)
		return
	}
	alias := nanobench.BatchKey(sha256.Sum256(body))
	if data := s.cache.AliasRendering(alias); data != nil {
		writeJSON(w, http.StatusOK, rendered(data))
		return
	}
	var req client.RunRequest
	if e := decodeBody(body, &req); e != nil {
		writeError(w, e)
		return
	}
	ev, e := s.prepareRun(req, &alias)
	if e != nil {
		writeError(w, e)
		return
	}
	serveEval(w, r, ev)
}

// serveSync runs a synchronous request's evaluation — the one its job would
// run — inline under the request context, and writes the response body.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, req client.JobRequest) {
	ev, e := s.prepare(req, 1)
	if e != nil {
		writeError(w, e)
		return
	}
	serveEval(w, r, ev)
}

// serveEval runs a prepared evaluation under the request context and
// writes its response body.
func serveEval(w http.ResponseWriter, r *http.Request, ev evaluation) {
	body, err := ev.run(r.Context(), func(bool, bool) {})
	if err != nil {
		writeError(w, runError(err))
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// MaxMeasurements caps warm-up plus timed runs per config. The runner
// itself bounds code size (unroll × benchmark bytes must fit the code
// area), but run counts are unbounded there — legitimate for a local
// CLI, a worker-pinning lever for an untrusted request.
const MaxMeasurements = 100000

// validateCost rejects configs whose declared cost no benchmark needs:
// a run-count gate here, the code-size gate in the runner's validation.
func validateCost(cfg nanobench.Config) *apiError {
	warm := cfg.WarmUpCount
	if warm < 0 {
		warm = 0 // NoWarmUp
	}
	// Individual bounds first so the sum below cannot overflow.
	if cfg.NMeasurements > MaxMeasurements || warm > MaxMeasurements ||
		cfg.NMeasurements+warm > MaxMeasurements {
		return errInvalid(fmt.Sprintf("config: %d measurement + %d warm-up runs exceed the limit of %d",
			cfg.NMeasurements, warm, MaxMeasurements))
	}
	return nil
}

// runError maps an evaluation's failure to the envelope: an *apiError
// passes through, client cancellations get the non-standard 499 (best
// effort — the client is usually gone), everything else is an
// unprocessable evaluation.
func runError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	body := itemError(err)
	status := http.StatusUnprocessableEntity
	if errors.Is(err, context.Canceled) {
		status = statusClientClosedRequest
	}
	return &apiError{status: status, body: *body}
}

func (s *Server) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	s.serveSync(w, r, client.JobRequest{RunBatch: &req})
}

// toItem converts a delivered batch item to its wire form.
func toItem(it nanobench.BatchItem) client.Item {
	out := client.Item{Index: it.Index}
	if it.Err != nil {
		out.Err = itemError(it.Err)
	} else {
		out.Result = it.Result
	}
	return out
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SweepRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if q := r.URL.Query().Get("stream"); q != "1" && q != "true" {
		s.serveSync(w, r, client.JobRequest{Sweep: &req})
		return
	}
	groups, n, e := s.prepareSweep(req)
	if e != nil {
		writeError(w, e)
		return
	}
	s.streamItems(w, mergeGroups(r.Context(), groups, n, 1))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", CPUs: cpuCatalog()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	keys := s.sessionKeys()
	sessions := make([]sessionStat, len(keys))
	for i, k := range keys {
		sessions[i] = sessionStat{CPU: k.cpu, Mode: k.mode.String()}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Sessions: sessions,
		Cache:    s.cache.Info(),
		InFlight: s.inflight.Load(),
		Jobs:     s.jobMgr.Stats(),
		Requests: requestStats{
			Run:      s.reqRun.Load(),
			RunBatch: s.reqBatch.Load(),
			Sweep:    s.reqSweep.Load(),
			Jobs:     s.reqJobs.Load(),
		},
		Options: optionsStat{
			Seed:            s.opts.Seed,
			Parallelism:     s.opts.Parallelism,
			WarmUpCount:     s.opts.WarmUp,
			CacheMaxEntries: s.opts.CacheMaxEntries,
		},
	})
}
