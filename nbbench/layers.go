package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"nanobench"
	"nanobench/client"
	"nanobench/internal/cachetools"
	"nanobench/internal/instbench"
	"nanobench/internal/sim/machine"
	"nanobench/internal/sim/policy"
	"nanobench/internal/uarch"
	"nanobench/internal/x86"
)

// The traced run's layer probes replay the workloads' generated inputs
// bottom-up, calling each layer's public entry point directly from here
// inside a span: the per-layer metrics are medians of those spans. Each
// probe draws its inputs from its own stream of the workload seed, with
// the same generators the workloads use.

// probe collects the layer metrics of one traced run.
type probe struct {
	seed int64
	par  int
	tr   *tracer
	cfgs []insnConfig
	// vals holds metrics computed directly; the span-derived ones are
	// added by summarize.
	vals  map[string]float64
	notes []string
	// attempted and failed count the probes' own correctness checks.
	attempted, failed int
	// nanoTotal is the serial evaluation time of every insn config.
	nanoTotal time.Duration
	// untracedHitMs and untracedMissMs are plain loopback /v1/run round
	// trips, the reference the traced decomposition must add up to.
	untracedHitMs, untracedMissMs float64
}

// check counts one correctness check.
func (p *probe) check(ok bool, what string) {
	p.attempted++
	if !ok {
		p.failed++
		p.notes = append(p.notes, "check failed: "+what)
	}
}

// rand returns the input generator of probe stream k.
func (p *probe) rand(k int) *rand.Rand { return passRand(p.seed, 1<<20+k) }

// probeLayers runs every layer probe, bottom-up.
func probeLayers(ctx context.Context, seed int64, par int, tr *tracer) (*probe, error) {
	cfgs, err := buildInsnConfigs()
	if err != nil {
		return nil, err
	}
	p := &probe{seed: seed, par: par, tr: tr, cfgs: cfgs, vals: map[string]float64{}}
	for _, step := range []func(context.Context) error{
		p.policy, p.cache, p.machine, p.instbench, p.nano, p.sched,
		p.cachetools, p.facade, p.server,
	} {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// policy times Single.CountHitsBatch against the scalar CountHits for
// every (policy, associativity) pair of Table I, on seeded random
// sequences; both must count the same hits.
func (p *probe) policy(ctx context.Context) error {
	type pair struct {
		name  string
		assoc int
	}
	seen := map[pair]bool{}
	var pairs []pair
	add := func(name string, assoc int) {
		if k := (pair{name, assoc}); name != "" && !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
	}
	for _, c := range uarch.Table1() {
		add(c.L1Policy, c.L1Assoc)
		add(c.L2Policy, c.L2Assoc)
		add(c.L3Policy, c.L3Assoc)
		if c.L3Adaptive != nil {
			add(c.L3Adaptive.PolicyA, c.L3Assoc)
			add(c.L3Adaptive.PolicyB, c.L3Assoc)
		}
	}
	rng := p.rand(0)
	var accesses int
	var batchNs, scalarNs int64
	for i, pr := range pairs {
		seqs := make([][]int, 400)
		for k := range seqs {
			seq := make([]int, 2*pr.assoc+rng.Intn(pr.assoc))
			for j := range seq {
				seq[j] = rng.Intn(pr.assoc + 4)
			}
			seqs[k] = seq
			accesses += len(seq)
		}
		batch, err := policy.NewSingle(pr.name, pr.assoc, policy.LazyRNG(int64(i)))
		if err != nil {
			return err
		}
		scalar, err := policy.NewSingle(pr.name, pr.assoc, policy.LazyRNG(int64(i)))
		if err != nil {
			return err
		}
		hb, hs := 0, 0
		start := time.Now()
		id := p.tr.begin("sim.policy.batch", 0, int64(i))
		for _, s := range seqs {
			hb += batch.CountHitsBatch(s)
		}
		p.tr.end(id)
		batchNs += time.Since(start).Nanoseconds()
		start = time.Now()
		id = p.tr.begin("sim.policy.scalar", 0, int64(i))
		for _, s := range seqs {
			hs += scalar.CountHits(s)
		}
		p.tr.end(id)
		scalarNs += time.Since(start).Nanoseconds()
		p.check(hb == hs, fmt.Sprintf("%s/%d batch %d hits, scalar %d", pr.name, pr.assoc, hb, hs))
	}
	p.vals["sim.policy.batch_ns_per_access"] = float64(batchNs) / float64(accesses)
	p.vals["sim.policy.scalar_ns_per_access"] = float64(scalarNs) / float64(accesses)
	return nil
}

// newSkylakeMachine builds a bare Skylake machine through the facade.
func newSkylakeMachine() (*nanobench.Machine, error) {
	s, err := nanobench.Open(nanobench.WithCPU("Skylake"))
	if err != nil {
		return nil, err
	}
	m, err := s.NewMachine()
	if err != nil {
		return nil, err
	}
	m.Hier.Prefetcher.Enabled = false
	return m, nil
}

// cache times Hierarchy.Data on a seeded L1-resident stream (16 KB) and
// an L3-resident one (2 MB: beyond the L2, inside the L3), after warming
// each.
func (p *probe) cache(ctx context.Context) error {
	m, err := newSkylakeMachine()
	if err != nil {
		return err
	}
	rng := p.rand(1)
	stream := func(name string, base uint64, lines, passes, wantLevel int) {
		addrs := make([]uint64, lines)
		for i, l := range rng.Perm(lines) {
			addrs[i] = base + uint64(l)*64
		}
		for w := 0; w < 2; w++ {
			for _, a := range addrs {
				m.Hier.Data(a, false)
			}
		}
		atLevel := 0
		start := time.Now()
		id := p.tr.begin(name, 0, int64(wantLevel))
		for r := 0; r < passes; r++ {
			for _, a := range addrs {
				if m.Hier.Data(a, false).Level == wantLevel {
					atLevel++
				}
			}
		}
		p.tr.end(id)
		n := passes * lines
		p.vals[name+"_ns_per_access"] = float64(time.Since(start).Nanoseconds()) / float64(n)
		p.check(atLevel*10 >= n*9, fmt.Sprintf("%s: %d of %d accesses served by L%d", name, atLevel, n, wantLevel))
	}
	stream("sim.cache.l1", 0x400000, 256, 400, 1)
	stream("sim.cache.l3", 0x1000000, 32768, 3, 3)
	return nil
}

// Addresses of the bare machine's code and data, as in the machine
// package's own benchmarks.
const (
	probeCodeBase = 0x0010_0000
	probeDataBase = 0x0100_0000
)

// machine times Machine.Run on the instbench throughput bodies, each
// unrolled 64 times, with the port counters programmed as for a
// nanoBench measurement.
func (p *probe) machine(ctx context.Context) error {
	m, err := newSkylakeMachine()
	if err != nil {
		return err
	}
	m.SetMode(nanobench.Kernel)
	if err := m.Mem.Map(probeCodeBase, 0x200000, 1<<20); err != nil {
		return err
	}
	if err := m.Mem.Map(probeDataBase, 0x400000, 4<<20); err != nil {
		return err
	}
	for i, sel := range []uint64{0xA1 | 0x01<<8, 0xA1 | 0x02<<8, 0xA1 | 0x04<<8, 0xA1 | 0x08<<8} {
		m.WriteMSR(machine.MSRPerfEvtSel0+uint32(i), sel|machine.PerfEvtSelEN)
	}
	m.WriteMSR(machine.MSRFixedCtrCtrl, 0x333)
	m.WriteMSR(machine.MSRPerfGlobalCtl, 0x7<<32|0xF)
	ret, err := nanobench.Asm("ret")
	if err != nil {
		return err
	}
	var instrs uint64
	var ns int64
	for i, c := range p.cfgs {
		if c.latency || c.v.Op == x86.PUSH || c.v.Op == x86.POP {
			continue // stack-unbalanced bodies cannot return
		}
		code := append([]byte(nil), c.cfg.CodeInit...)
		for k := 0; k < 64; k++ {
			code = append(code, c.cfg.Code...)
		}
		code = append(code, ret...)
		if err := m.WriteCode(probeCodeBase, code); err != nil {
			return err
		}
		run := func() (machine.RunResult, error) {
			m.SetReg(x86.R14, probeDataBase)
			m.PMU.ResetAll(m.Cycle())
			return m.Run(probeCodeBase)
		}
		if _, err := run(); err != nil { // warm predictors and caches
			return fmt.Errorf("%s: %w", c.v.Name(), err)
		}
		start := time.Now()
		id := p.tr.begin("sim.machine.run", 0, int64(i))
		for k := 0; k < 20; k++ {
			res, err := run()
			if err != nil {
				return fmt.Errorf("%s: %w", c.v.Name(), err)
			}
			instrs += res.Instructions
		}
		p.tr.end(id)
		ns += time.Since(start).Nanoseconds()
	}
	p.vals["sim.machine.ns_per_instr"] = float64(ns) / float64(instrs)
	p.vals["sim.machine.mips"] = float64(instrs) * 1000 / float64(ns)
	return nil
}

// asmLine renders one instance of a variant in the operand syntax of
// instbench's throughput bodies.
func asmLine(v instbench.Variant) string {
	op := v.Op.String()
	switch v.Form {
	case instbench.FormR:
		return op + " r8"
	case instbench.FormM:
		return op + " qword ptr [r14+8]"
	case instbench.FormRR:
		if v.Op == x86.XCHG {
			return op + " r8, r8"
		}
		return op + " r8, rbp"
	case instbench.FormRI:
		return op + " r8, 7"
	case instbench.FormRCL:
		return op + " r8, cl"
	case instbench.FormRM:
		return op + " r8, [r14+8]"
	case instbench.FormMR:
		return op + " [r14+8], rbp"
	case instbench.FormLoad:
		return "mov r8, [r14+8]"
	case instbench.FormXX:
		return op + " xmm2, xmm0"
	case instbench.FormXM:
		return op + " xmm2, [r14+16]"
	case instbench.FormXR:
		return "movq xmm2, rbp"
	case instbench.FormRX:
		return "movq r8, xmm0"
	}
	return op
}

// instbench times generating every instbench config, and assembling one
// instruction of every variant.
func (p *probe) instbench(ctx context.Context) error {
	for k := 0; k < 5; k++ {
		id := p.tr.begin("instbench.build", 0, int64(k))
		_, err := buildInsnConfigs()
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	for i, v := range instbench.Variants() {
		src := asmLine(v)
		for k := 0; k < 10; k++ {
			id := p.tr.begin("x86.asm", 0, int64(i))
			_, err := nanobench.Asm(src)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("assembling %q: %w", src, err)
			}
		}
	}
	return nil
}

// shuffledConfigs returns every insn config in the order of probe stream k.
func (p *probe) shuffledConfigs(k int) []nanobench.Config {
	out := make([]nanobench.Config, len(p.cfgs))
	for i, j := range p.rand(k).Perm(len(p.cfgs)) {
		out[i] = p.cfgs[j].cfg
	}
	return out
}

// nano evaluates every insn config serially on one runner of a fresh
// Skylake session, keeping the summed evaluation time for
// sched.efficiency.
func (p *probe) nano(ctx context.Context) error {
	s, err := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithMode(nanobench.Kernel))
	if err != nil {
		return err
	}
	r, err := s.NewRunner()
	if err != nil {
		return err
	}
	for i, cfg := range p.shuffledConfigs(2) {
		id := p.tr.begin("nano.run", 0, int64(i))
		start := time.Now()
		_, err := r.RunContext(ctx, cfg)
		p.nanoTotal += time.Since(start)
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// sched times whole-table RunBatch calls on fresh sessions, then warm
// (all-hit) RunBatch calls on the last one.
func (p *probe) sched(ctx context.Context) error {
	cfgs := p.shuffledConfigs(3)
	var s *nanobench.Session
	for k := 0; k < 3; k++ {
		var err error
		s, err = nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithParallelism(p.par))
		if err != nil {
			return err
		}
		id := p.tr.begin("sched.batch", 0, int64(k))
		_, err = s.RunBatch(ctx, cfgs)
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	_, before := s.CacheStats()
	for k := 0; k < 3; k++ {
		id := p.tr.begin("sched.hit_batch", 0, int64(k))
		_, err := s.RunBatch(ctx, cfgs)
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	_, after := s.CacheStats()
	p.check(after == before, fmt.Sprintf("warm RunBatch: %d cache misses", after-before))
	return nil
}

// cachetools times policy inference on seeded Table I cells, an age
// graph, one leader-set scan, and direct RunSeqTrials calls.
func (p *probe) cachetools(ctx context.Context) error {
	rng := p.rand(4)
	cpus := uarch.Table1()
	var sequences int
	for k := 0; k < 3; k++ {
		cpu := cpus[rng.Intn(len(cpus))]
		level, set, want := cachetools.L1, 37, cpu.L1Policy
		switch rng.Intn(3) {
		case 1:
			level, set, want = cachetools.L2, 300, cpu.L2Policy
		case 2:
			if cpu.L3Adaptive == nil {
				level, set, want = cachetools.L3, 600, cpu.L3Policy
			}
		}
		tool, err := cacheTool(cpu.Name)
		if err != nil {
			return err
		}
		id := p.tr.begin("cachetools.infer", 0, int64(k))
		res, err := tool.InferPolicyContext(ctx, level, 0, set, cachetools.InferOptions{MaxSequences: 120, Seed: passSeed(p.seed, k)})
		p.tr.end(id)
		if err != nil {
			return err
		}
		sequences += res.SequencesUsed
		p.check(res.Contains(want), fmt.Sprintf("%s %s set %d: inferred %v, want %s", cpu.Name, level, set, res.Classes, want))
	}
	p.vals["cachetools.sequences"] = float64(sequences)

	tool, err := cacheTool("IvyBridge")
	if err != nil {
		return err
	}
	prefix := cachetools.SeqOf(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	id := p.tr.begin("cachetools.agegraph", 0, 0)
	_, err = tool.AgeGraphFor(cachetools.L3, 0, 768, prefix, 64, 16, 8)
	p.tr.end(id)
	if err != nil {
		return err
	}

	model := duelingModels[rng.Intn(len(duelingModels))]
	sets := duelingSets(rng)
	if tool, err = cacheTool(model); err != nil {
		return err
	}
	id = p.tr.begin("cachetools.dueling", 0, 0)
	rep, err := tool.FindDedicatedSets(duelingSlices, sets, duelingTrials)
	p.tr.end(id)
	if err != nil {
		return err
	}
	misses, err := duelingMisses(model, rep)
	if err != nil {
		return err
	}
	p.check(misses == 0, fmt.Sprintf("%s leader-set scan: %d misclassified sets", model, misses))
	replays, realRuns := tool.R.SeqReplayStats()
	p.vals["nano.seqreplay_ratio"] = float64(replays) / float64(replays+realRuns)
	p.vals["nano.seq_real_runs"] = float64(realRuns)

	var th []int
	for r := 0; r < 4; r++ {
		for b := 0; b < tool.Assoc(cachetools.L3)+2; b++ {
			th = append(th, b)
		}
	}
	thrash := cachetools.SeqOf(true, th...).AllMeasured()
	input := int64(0)
	for r := 0; r < 3; r++ {
		for _, slice := range duelingSlices {
			for _, set := range sets {
				input++
				id := p.tr.begin("cachetools.seq_trials", 0, input)
				_, err := tool.RunSeqTrials(ctx, cachetools.L3, slice, set, thrash, duelingTrials)
				p.tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// facade times opening sessions and one sweep job's 64 configs through
// StreamSharded on two shards.
func (p *probe) facade(ctx context.Context) error {
	for k := 0; k < 20; k++ {
		id := p.tr.begin("facade.open", 0, int64(k))
		_, err := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithParallelism(p.par))
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	rng := p.rand(5)
	std := standardThroughput(p.cfgs)
	for k := 0; k < 3; k++ {
		sw, _, err := newSweep(p.cfgs, std, rng, int64(k+1))
		if err != nil {
			return err
		}
		cfgs, err := sw.Configs()
		if err != nil {
			return err
		}
		s, err := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithParallelism(p.par))
		if err != nil {
			return err
		}
		bad := 0
		id := p.tr.begin("facade.stream_sharded", 0, int64(k))
		for it := range s.StreamSharded(ctx, cfgs, 2) {
			if it.Err != nil {
				bad++
			}
		}
		p.tr.end(id)
		p.check(bad == 0, fmt.Sprintf("StreamSharded: %d of %d items failed", bad, len(cfgs)))
	}
	return nil
}

// serverRuns is how many fresh configs the server probe sends, each
// twice (a miss, then a hit), untraced and traced.
const serverRuns = 100

// server sends fresh configs through a facade session and through a
// loopback nanobenchd, each twice, so every input has a miss and a hit in
// both; then it runs sweep jobs and reads the server's counters.
func (p *probe) server(ctx context.Context) error {
	lb, err := newLoopback(p.par)
	if err != nil {
		return err
	}
	defer lb.close()
	rng := p.rand(6)
	fresh := func(tag int64) (insnConfig, nanobench.Config, []byte, error) {
		c := p.cfgs[rng.Intn(len(p.cfgs))]
		cfg, err := tagged(c.cfg, tag)
		if err != nil {
			return c, cfg, nil, err
		}
		body, err := runBody(cfg)
		return c, cfg, body, err
	}

	sess, err := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithParallelism(p.par))
	if err != nil {
		return err
	}
	defer lb.trac.Store(nil)
	// Each round sends two fresh configs through both the facade session
	// and the server, each twice (a miss, then a hit): the first config
	// untraced, as the reference the traced decomposition must add up to,
	// the second traced. The two halves follow the same pattern, and
	// interleaving them keeps both under the same machine conditions; the
	// facade goes first in even rounds. Traced input 2q+1 is round q's
	// miss and 2q+2 its hit.
	var hit, miss []float64
	for q := 0; q < serverRuns; q++ {
		for half, tr := range []*tracer{nil, p.tr} {
			c, cfg, body, err := fresh(int64(2*q + half + 1))
			if err != nil {
				return err
			}
			lb.trac.Store(tr)
			for r, name := range []string{"facade.session_run_miss", "facade.session_run_hit"} {
				input := int64(2*q + r + 1)
				viaFacade := func() error {
					id := tr.begin(name, 0, input)
					_, err := sess.Run(ctx, cfg)
					tr.end(id)
					return err
				}
				viaServer := func() error {
					start := time.Now()
					status, data, err := lb.do(ctx, http.MethodPost, "/v1/run", body, tr, input)
					if err != nil {
						return err
					}
					if tr == nil {
						ms := float64(time.Since(start)) / float64(time.Millisecond)
						if r == 0 {
							miss = append(miss, ms)
						} else {
							hit = append(hit, ms)
						}
					}
					p.check(checkRun(c, status, data) == nil, fmt.Sprintf("/v1/run %d.%d.%d", q, half, r))
					return nil
				}
				first, second := viaFacade, viaServer
				if q%2 == 1 {
					first, second = viaServer, viaFacade
				}
				if err := first(); err != nil {
					return err
				}
				if err := second(); err != nil {
					return err
				}
			}
		}
	}
	p.untracedHitMs, p.untracedMissMs = median(hit), median(miss)

	std := standardThroughput(p.cfgs)
	var wait, run []float64
	for k := 0; k < 4; k++ {
		body, items, err := newSweepJob(p.cfgs, std, rng, int64(1<<20+k))
		if err != nil {
			return err
		}
		jobID, err := runJob(ctx, lb, body, items, p.tr, int64(1<<20+k))
		p.check(err == nil, fmt.Sprintf("sweep job: %v", err))
		if jobID == "" {
			continue
		}
		var rec client.JobStatus
		if err := getJSON(ctx, lb, "/v1/jobs/"+jobID, &rec); err != nil {
			return err
		}
		wait = append(wait, float64(rec.StartedNs-rec.SubmittedNs)/1e6)
		run = append(run, float64(rec.FinishedNs-rec.StartedNs)/1e6)
	}
	p.vals["jobs.queue_wait_ms"] = median(wait)
	p.vals["jobs.run_ms"] = median(run)

	var stats struct {
		Cache nanobench.BatchCacheInfo `json:"cache"`
	}
	if err := getJSON(ctx, lb, "/v1/stats", &stats); err != nil {
		return err
	}
	p.vals["sched.hit_ratio"] = float64(stats.Cache.Hits) / float64(stats.Cache.Hits+stats.Cache.Misses)
	p.vals["sched.evictions"] = float64(stats.Cache.Evictions)
	return nil
}

// getJSON fetches path from the loopback server into out, untraced.
func getJSON(ctx context.Context, lb *loopback, path string, out any) error {
	status, data, err := lb.do(ctx, http.MethodGet, path, nil, nil, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, status, data)
	}
	return json.Unmarshal(data, out)
}

// summarize derives the span-based metrics and the decomposition notes.
func (p *probe) summarize(spans []Span) {
	ix := indexSpans(spans)
	med := func(name string, unit time.Duration) float64 { return median(ix.durations(name, unit)) }
	v := p.vals
	v["facade.open_ms"] = med("facade.open", time.Millisecond)
	v["facade.session_run_hit_us"] = med("facade.session_run_hit", time.Microsecond)
	v["facade.session_run_miss_ms"] = med("facade.session_run_miss", time.Millisecond)
	v["facade.stream_sharded_ms"] = med("facade.stream_sharded", time.Millisecond)
	v["instbench.build_ms"] = med("instbench.build", time.Millisecond)
	v["x86.asm_us"] = med("x86.asm", time.Microsecond)
	v["nano.run_ms"] = med("nano.run", time.Millisecond)
	v["nano.runs"] = float64(len(ix.byName["nano.run"]))
	v["sched.batch_s"] = med("sched.batch", time.Second)
	v["sched.efficiency"] = p.nanoTotal.Seconds() / (float64(p.par) * v["sched.batch_s"])
	v["sched.hit_us"] = med("sched.hit_batch", time.Microsecond) / float64(len(p.cfgs))
	v["cachetools.infer_ms"] = med("cachetools.infer", time.Millisecond)
	v["cachetools.agegraph_ms"] = med("cachetools.agegraph", time.Millisecond)
	v["cachetools.dueling_ms"] = med("cachetools.dueling", time.Millisecond)
	v["cachetools.seq_trials_us"] = med("cachetools.seq_trials", time.Microsecond)
	v["cachetools.seq_trials"] = float64(len(ix.byName["cachetools.seq_trials"]))

	// Per input: the facade's evaluation, the server handler nested in
	// the loopback round trip, and the round trip's self time (the wire).
	session := map[int64]float64{}
	for _, name := range []string{"facade.session_run_miss", "facade.session_run_hit"} {
		for in, d := range ix.byInput(name, time.Microsecond) {
			session[in] = d
		}
	}
	var hHit, hMiss, selfHit, selfMiss, wire []float64
	for _, rt := range ix.byName["net.roundtrip"] {
		s, ok := session[rt.Input]
		kids := ix.children[rt.ID]
		if !ok || len(kids) != 1 {
			continue // a job's round trips: no facade twin
		}
		h := float64(kids[0].dur()) / float64(time.Microsecond)
		if rt.Input%2 == 0 {
			// The wire's share is taken from the hits, whose short
			// replies isolate it from evaluation-time noise.
			wire = append(wire, float64(selfTime(rt, kids))/float64(time.Microsecond))
			hHit, selfHit = append(hHit, h), append(selfHit, h-s)
		} else {
			hMiss, selfMiss = append(hMiss, h/1000), append(selfMiss, (h-s)/1000)
		}
	}
	v["server.handler_hit_us"] = median(hHit)
	v["server.handler_miss_ms"] = median(hMiss)
	v["server.self_hit_us"] = median(selfHit)
	v["server.self_miss_ms"] = median(selfMiss)
	v["net.overhead_us"] = median(wire)

	hitSum := (v["net.overhead_us"] + v["server.self_hit_us"] + v["facade.session_run_hit_us"]) / 1000
	missSum := v["net.overhead_us"]/1000 + v["server.self_miss_ms"] + v["facade.session_run_miss_ms"]
	p.notes = append(p.notes,
		fmt.Sprintf("hot /v1/run: net %.1f us + server self %.1f us + session run %.1f us = %.4f ms; untraced round trip p50 %.4f ms (%+.1f%%)",
			v["net.overhead_us"], v["server.self_hit_us"], v["facade.session_run_hit_us"], hitSum, p.untracedHitMs, 100*(hitSum/p.untracedHitMs-1)),
		fmt.Sprintf("fresh /v1/run: net %.1f us + server self %.3f ms + session run %.3f ms = %.4f ms; untraced round trip p50 %.4f ms (%+.1f%%)",
			v["net.overhead_us"], v["server.self_miss_ms"], v["facade.session_run_miss_ms"], missSum, p.untracedMissMs, 100*(missSum/p.untracedMissMs-1)))

	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.notes = append(p.notes, fmt.Sprintf("span %-30s n=%-6d p50 %.3f us", n, len(ix.byName[n]), med(n, time.Microsecond)))
	}
}
