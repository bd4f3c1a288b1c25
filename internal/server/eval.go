package server

import (
	"context"
	"fmt"

	"nanobench"
	"nanobench/client"
	"nanobench/internal/sched"
)

// This file is the one evaluation core behind both front ends: a
// synchronous endpoint (/v1/run, /v1/runbatch, /v1/sweep) runs its
// request's evaluation inline, and /v1/jobs runs the same evaluation as
// the job's task on the manager's pool. prepare validates a request and
// returns its evaluation; the ordered multi-session merge (mergeGroups)
// feeds the evaluation's item loop and the streamed sweep. One
// evaluation per request kind means a job's rendered result is
// byte-identical to the synchronous response by construction.

// evaluation is one validated request, ready to run.
type evaluation struct {
	kind string // the job kind: "run", "runbatch", "sweep" or "campaign"
	n    int    // the items it evaluates: a job's progress total
	// run evaluates the request, calling step once per finished item,
	// and returns the response body. A cancelled context fails it.
	run func(ctx context.Context, step func(cacheHit, failed bool)) (any, error)
}

// prepare validates req — exactly one request body — with the gates of
// its kind, so a bad job is rejected at submit time with the same
// envelope its synchronous endpoint answers, never accepted and failed
// later. A sweep keeps shards machines in flight per session.
func (s *Server) prepare(req client.JobRequest, shards int) (evaluation, *apiError) {
	set := 0
	for _, p := range []bool{req.Run != nil, req.RunBatch != nil, req.Sweep != nil, req.Campaign != nil} {
		if p {
			set++
		}
	}
	switch {
	case set != 1:
		return evaluation{}, errBadRequest(`give exactly one of "run", "runbatch", "sweep", "campaign"`)
	case req.Run != nil:
		return s.prepareRun(*req.Run, nil)
	case req.RunBatch != nil:
		groups, n, e := s.prepareBatch(*req.RunBatch)
		if e != nil {
			return evaluation{}, e
		}
		return itemsEval("runbatch", groups, n, 1, func(items []client.Item) any {
			return client.BatchResponse{Results: items}
		}), nil
	case req.Sweep != nil:
		groups, n, e := s.prepareSweep(*req.Sweep)
		if e != nil {
			return evaluation{}, e
		}
		return itemsEval("sweep", groups, n, shards, func(items []client.Item) any {
			return client.SweepResponse{Count: n, Results: items}
		}), nil
	}
	return s.prepareCampaign(*req.Campaign)
}

// itemsEval is a batch's or sweep's evaluation: every group's items
// merged into request order, then wrapped by body. Items carry their own
// errors; only a cancelled context fails the whole evaluation.
func itemsEval(kind string, groups []*evalGroup, n, shards int, body func([]client.Item) any) evaluation {
	return evaluation{kind: kind, n: n, run: func(ctx context.Context, step func(cacheHit, failed bool)) (any, error) {
		items := make([]client.Item, 0, n)
		for it := range mergeGroups(ctx, groups, n, shards) {
			step(it.CacheHit, it.Err != nil)
			items = append(items, toItem(it))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return body(items), nil
	}}
}

// evalGroup is one session's share of a heterogeneous request: the
// configs routed to that session plus their global response indices, in
// first-appearance order.
type evalGroup struct {
	sess    *nanobench.Session
	indices []int
	cfgs    []nanobench.Config
}

// prepareRun validates a single-evaluation request and resolves its
// session. A non-nil alias — the request body's SHA-256 on /v1/run — is
// filed with the rendering the run stores (Session.RunRendered).
func (s *Server) prepareRun(req client.RunRequest, alias *nanobench.BatchKey) (evaluation, *apiError) {
	if len(req.Config.Code) == 0 && len(req.Config.CodeInit) == 0 {
		return evaluation{}, errInvalid("config: no benchmark code (give code/asm or code_init/asm_init)")
	}
	if e := validateCost(req.Config); e != nil {
		return evaluation{}, e
	}
	sess, e := s.session(req.CPU, req.Mode)
	if e != nil {
		return evaluation{}, e
	}
	return evaluation{kind: "run", n: 1, run: func(ctx context.Context, step func(cacheHit, failed bool)) (any, error) {
		// A repeated run answers its first cached rendering's bytes.
		data, hit, err := sess.RunRendered(ctx, req.Config, alias, func(res *nanobench.Result) ([]byte, error) {
			return renderJSON(client.RunResponse{CPU: sess.CPUName(), Mode: sess.Mode().String(), Result: res})
		})
		step(hit, err != nil)
		if err != nil {
			return nil, runError(err)
		}
		return rendered(data), nil
	}}, nil
}

// prepareBatch validates a batch request and groups its jobs by
// session. Returns the groups and the total job count.
func (s *Server) prepareBatch(req client.BatchRequest) ([]*evalGroup, int, *apiError) {
	if len(req.Jobs) == 0 {
		return nil, 0, errInvalid("empty batch: no jobs")
	}
	if len(req.Jobs) > s.opts.MaxBatch {
		return nil, 0, errInvalid(fmt.Sprintf("batch of %d jobs exceeds the limit of %d", len(req.Jobs), s.opts.MaxBatch))
	}
	groups, e := s.groupJobs(len(req.Jobs), "job", func(i int) (string, string, nanobench.Config) {
		return req.Jobs[i].CPU, req.Jobs[i].Mode, req.Jobs[i].Config
	})
	return groups, len(req.Jobs), e
}

// prepareSweep validates a sweep request, expands it into (CPU, mode,
// config) jobs — heterogeneous sweeps fan out across sessions, plain
// ones collapse to the default session — and groups them. Returns the
// groups and the expansion size.
func (s *Server) prepareSweep(req client.SweepRequest) ([]*evalGroup, int, *apiError) {
	// Resolve the request-level defaults first: a bad cpu/mode name fails
	// here whether or not the sweep overrides those dimensions.
	sess, e := s.session(req.CPU, req.Mode)
	if e != nil {
		return nil, 0, e
	}
	sw := req.Sweep
	if sw == nil { // a missing or null "sweep" is an empty one
		sw = new(nanobench.Sweep)
	}
	if err := sw.Err(); err != nil {
		return nil, 0, errInvalid(err.Error())
	}
	n := sw.Len()
	if n == 0 {
		return nil, 0, errInvalid("sweep expands to no configs (no benchmark code)")
	}
	if n > s.opts.MaxBatch {
		return nil, 0, errInvalid(fmt.Sprintf("sweep of %d configs exceeds the limit of %d", n, s.opts.MaxBatch))
	}
	// Expand here (exactly what StreamSweep would do) so every generated
	// config passes the cost gate before any simulation starts. The
	// request's own cpu/mode fields are the defaults for dimensions the
	// sweep leaves unset; an empty CPU stays empty for the session
	// registry to resolve.
	jobs, err := sw.Jobs(req.CPU, sess.Mode())
	if err != nil {
		return nil, 0, errInvalid(err.Error())
	}
	groups, e := s.groupJobs(len(jobs), "config", func(i int) (string, string, nanobench.Config) {
		return jobs[i].CPU, jobs[i].Mode.String(), jobs[i].Cfg
	})
	return groups, len(jobs), e
}

// groupJobs validates (cpu, mode, config) entries and groups them by
// session, preserving first-appearance order so the per-session
// sub-batches (and therefore the index-derived machine seeds) are
// deterministic. A bad entry fails the whole request up front — a typo
// in entry 7's CPU name is caught before any simulation starts — with
// the entry's position prefixed onto the message ("job 7: ...").
func (s *Server) groupJobs(n int, label string, entry func(i int) (cpu, mode string, cfg nanobench.Config)) ([]*evalGroup, *apiError) {
	bySession := make(map[*nanobench.Session]*evalGroup)
	var groups []*evalGroup
	for i := 0; i < n; i++ {
		cpu, mode, cfg := entry(i)
		e := validateCost(cfg)
		if e == nil {
			var sess *nanobench.Session
			if sess, e = s.session(cpu, mode); e == nil {
				g := bySession[sess]
				if g == nil {
					g = &evalGroup{sess: sess}
					bySession[sess] = g
					groups = append(groups, g)
				}
				g.indices = append(g.indices, i)
				g.cfgs = append(g.cfgs, cfg)
				continue
			}
		}
		e.body.Message = fmt.Sprintf("%s %d: %s", label, i, e.body.Message)
		return nil, e
	}
	return groups, nil
}

// mergeGroups drains every group's stream concurrently and delivers the
// items over one channel in global index order, each as soon as it and
// all its predecessors are ready. shards > 1 streams every group through
// StreamSharded with that many machines in flight — the fan-out
// asynchronous sweep jobs use; either way the delivered bytes are
// identical, which the job equivalence test pins.
//
// On cancellation the sessions deliver the remaining items carrying the
// context error, so every index is still delivered and the channel
// always closes.
func mergeGroups(ctx context.Context, groups []*evalGroup, n, shards int) <-chan nanobench.BatchItem {
	return sched.InOrder(n, func(put func(nanobench.BatchItem)) {
		// One worker per group, so every session evaluates at once.
		// Items carry their own errors, so ForEach returns nil.
		_ = sched.ForEach(len(groups), len(groups), func(gi int) error {
			g := groups[gi]
			var ch <-chan nanobench.BatchItem
			if shards > 1 {
				ch = g.sess.StreamSharded(ctx, g.cfgs, shards)
			} else {
				ch = g.sess.Stream(ctx, g.cfgs)
			}
			for it := range ch {
				it.Index = g.indices[it.Index]
				put(it)
			}
			return nil
		})
	})
}
