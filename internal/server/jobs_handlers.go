package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"nanobench/client"
	"nanobench/internal/experiments"
	"nanobench/internal/jobs"
)

// The asynchronous jobs surface. A job wraps one of the synchronous
// evaluation requests and runs it on the manager's worker pool behind a
// bounded admission queue:
//
//	POST   /v1/jobs                submit; 202 + job record, 429 when full
//	GET    /v1/jobs/{id}           poll the job record
//	GET    /v1/jobs/{id}/result    the finished body; ?wait=1 long-polls
//	GET    /v1/jobs/{id}/events    transition log; ?stream=1 NDJSON live
//	DELETE /v1/jobs/{id}           cancel (park queued, interrupt running)
//
// A job runs the evaluation its synchronous endpoint runs inline (see
// prepare), so a done job's result bytes are exactly what that endpoint
// would have written — sweep jobs additionally evaluate with SweepShards
// machines in flight per session (Session.StreamSharded), which is
// byte-identical by construction.

// Campaign size limits. A campaign's worker count, age-graph trials and
// fresh-block counts size allocations before anything is simulated, so
// values past these limits are refused at submit time.
const (
	// MaxCampaignWorkers caps a campaign's machines in flight.
	MaxCampaignWorkers = 64
	// MaxAgeFresh caps age_max_fresh: a tool's 128 MiB area holds 255–513
	// blocks per L3 set on every model, so no larger count can succeed.
	MaxAgeFresh = 1024
)

// prepareCampaign validates a campaign submission (CPU names and levels
// resolve, sizes within the campaign limits) and sizes its progress
// denominator: one step per cell plus one per age graph.
func (s *Server) prepareCampaign(req client.CampaignRequest) (evaluation, *apiError) {
	levels, err := experiments.ParseLevels(req.Levels)
	if err != nil {
		return evaluation{}, errBadRequest(err.Error())
	}
	for _, lim := range []struct {
		name     string
		val, max int
	}{
		{"workers", req.Workers, MaxCampaignWorkers},
		// The trials become one invocation's measurement count.
		{"age_trials", req.AgeTrials, MaxMeasurements},
		{"age_max_fresh", req.AgeMaxFresh, MaxAgeFresh},
	} {
		if lim.val > lim.max {
			return evaluation{}, errInvalid(fmt.Sprintf("campaign: %s %d exceeds the limit of %d",
				lim.name, lim.val, lim.max))
		}
	}
	opt := experiments.CampaignOptions{
		CPUs:         req.CPUs,
		Levels:       levels,
		MaxSequences: req.MaxSequences,
		Seed:         req.Seed,
		Workers:      req.Workers,
		AgeGraphs:    req.AgeGraphs,
		AgeMaxFresh:  req.AgeMaxFresh,
		AgeStep:      req.AgeStep,
		AgeTrials:    req.AgeTrials,
	}
	total, err := experiments.CampaignSize(opt)
	if err != nil {
		return evaluation{}, errBadRequest(err.Error())
	}
	return evaluation{kind: "campaign", n: total, run: func(ctx context.Context, step func(cacheHit, failed bool)) (any, error) {
		return experiments.PolicyCampaign(ctx, opt, func() { step(false, false) })
	}}, nil
}

// toJob converts a job snapshot to its wire form: the submit, status
// and cancel body, one entry of the events log, and the NDJSON event
// stream's line format.
func toJob(snap jobs.Snapshot) client.JobStatus {
	out := client.JobStatus{
		ID:          snap.ID,
		Kind:        snap.Kind,
		State:       string(snap.State),
		SubmittedNs: snap.SubmittedNs,
		StartedNs:   snap.StartedNs,
		FinishedNs:  snap.FinishedNs,
		Progress:    client.JobProgress(snap.Progress),
	}
	if snap.Err != nil {
		var ae *apiError
		switch {
		case errors.As(snap.Err, &ae):
			body := ae.body
			out.Err = &body
		case snap.State == jobs.Canceled:
			out.Err = &client.ItemError{Code: "canceled", Message: snap.Err.Error()}
		default:
			out.Err = &client.ItemError{Code: "evaluation_failed", Message: snap.Err.Error()}
		}
	}
	return out
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.JobRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	ev, e := s.prepare(req, s.opts.SweepShards)
	if e != nil {
		writeError(w, e)
		return
	}
	snap, err := s.jobMgr.Submit(ev.kind, ev.n, func(ctx context.Context, p *jobs.Progress) ([]byte, error) {
		body, err := ev.run(ctx, p.Step)
		if err != nil {
			return nil, err
		}
		return renderJSON(body)
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, errQueueFull("job queue full; retry later", s.jobMgr.RetryAfter()))
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, errUnavailable("server is draining; not accepting jobs", 1))
		return
	case err != nil:
		writeError(w, errInternal(err.Error()))
		return
	}
	writeJSON(w, http.StatusAccepted, toJob(snap))
}

// handleJobByID dispatches /v1/jobs/{id}[/result|/events] by hand — the
// ServeMux of the toolchain's floor version has no method or wildcard
// patterns — preserving the JSON envelope for unknown paths and
// methods.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	if id == "" {
		writeError(w, errNotFound("no such endpoint: "+r.URL.Path))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.handleJobStatus(w, id)
	case sub == "" && r.Method == http.MethodDelete:
		s.handleJobCancel(w, id)
	case sub == "":
		writeError(w, errMethod("GET or DELETE required"))
	case sub == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, r, id)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id)
	case sub == "result" || sub == "events":
		writeError(w, errMethod("GET required"))
	default:
		writeError(w, errNotFound("no such endpoint: "+r.URL.Path))
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, id string) {
	snap, err := s.jobMgr.Get(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	writeJSON(w, http.StatusOK, toJob(snap))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, id string) {
	snap, err := s.jobMgr.Cancel(id, "canceled by client")
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	writeJSON(w, http.StatusOK, toJob(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	if q := r.URL.Query().Get("wait"); q == "1" || q == "true" {
		if _, err := s.jobMgr.Wait(r.Context(), id); err != nil {
			if errors.Is(err, jobs.ErrNotFound) {
				writeError(w, errNotFound("no such job: "+id))
			} else { // client gone; best effort
				writeError(w, &apiError{status: statusClientClosedRequest, body: client.ItemError{Code: "canceled", Message: "client closed request"}})
			}
			return
		}
	}
	snap, body, err := s.jobMgr.Result(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	switch snap.State {
	case jobs.Done:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case jobs.Canceled:
		writeError(w, &apiError{status: http.StatusConflict, body: client.ItemError{Code: "canceled", Message: snap.Err.Error()}})
	case jobs.Failed:
		// Replay the stored envelope: the job's failure answers exactly
		// as the synchronous endpoint would have. A failure with no
		// synchronous counterpart (a campaign's) is an unprocessable
		// evaluation carrying its record's error.
		var ae *apiError
		if errors.As(snap.Err, &ae) {
			writeError(w, ae)
			return
		}
		writeError(w, &apiError{status: http.StatusUnprocessableEntity, body: *toJob(snap).Err})
	default: // queued or running
		writeError(w, errUnavailable(fmt.Sprintf("job %s is %s; result not ready (poll, or retry with ?wait=1)", id, snap.State), 1))
	}
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	if q := r.URL.Query().Get("stream"); q == "1" || q == "true" {
		s.streamJobEvents(w, r, id)
		return
	}
	evs, err := s.jobMgr.Events(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	resp := client.JobEvents{Events: make([]client.JobStatus, len(evs))}
	for i, snap := range evs {
		resp.Events[i] = toJob(snap)
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamJobEvents follows a job live as NDJSON: the transition log so
// far, then one line per state or progress change until the job is
// terminal or the client goes away. Delivery is at-least-once — a
// change landing between the replay and the watch is re-sent, never
// lost, because the change channel was taken before the replay.
func (s *Server) streamJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	snap, changed, err := s.jobMgr.Watch(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	evs, _ := s.jobMgr.Events(id)
	for _, e := range evs {
		if enc.Encode(toJob(e)) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for !snap.State.Terminal() {
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		if snap, changed, err = s.jobMgr.Watch(id); err != nil {
			return // pruned mid-stream
		}
		if enc.Encode(toJob(snap)) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the job subsystem's families plus the result cache and HTTP
// request families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var mw jobs.MetricsWriter
	s.jobMgr.WriteMetrics(&mw)
	info := s.cache.Info()
	mw.Counter("nanobenchd_cache_hits_total", "Result-cache lookup hits.", info.Hits)
	mw.Counter("nanobenchd_cache_misses_total", "Result-cache lookup misses.", info.Misses)
	mw.Counter("nanobenchd_cache_evictions_total", "Result-cache entries evicted by the LRU bound.", info.Evictions)
	mw.Gauge("nanobenchd_cache_entries", "Result-cache resident entries.", float64(info.Entries))
	mw.Gauge("nanobenchd_inflight_requests", "Evaluation requests currently being served inline.", float64(s.inflight.Load()))
	mw.CounterVec("nanobenchd_requests_total", "Requests served, by endpoint.", "endpoint", map[string]uint64{
		"run":      s.reqRun.Load(),
		"runbatch": s.reqBatch.Load(),
		"sweep":    s.reqSweep.Load(),
		"jobs":     s.reqJobs.Load(),
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw.WriteTo(w)
}
