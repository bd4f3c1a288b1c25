package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"nanobench"
	"nanobench/internal/instbench"
	"nanobench/internal/x86"
)

// insnConfig is one instbench evaluation: the latency or the throughput
// configuration of one instruction variant.
type insnConfig struct {
	v       instbench.Variant
	latency bool
	cfg     nanobench.Config
}

// buildInsnConfigs generates every instbench.LatencyConfig and
// ThroughputConfig, in variant order: the §V sweep's inputs.
func buildInsnConfigs() ([]insnConfig, error) {
	var out []insnConfig
	for _, v := range instbench.Variants() {
		cfg, ok, err := instbench.LatencyConfig(v)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, insnConfig{v: v, latency: true, cfg: cfg})
		}
		tp, err := instbench.ThroughputConfig(v)
		if err != nil {
			return nil, err
		}
		out = append(out, insnConfig{v: v, cfg: tp})
	}
	return out, nil
}

// insnMiss reports whether res disagrees with the simulator's ground-truth
// instruction table by the rule of experiments.InstructionTable: a
// register self-chain's latency within 0.25 cycles of the table, and a
// non-empty measured port set inside the expected ports.
func insnMiss(c insnConfig, res *nanobench.Result) bool {
	if res == nil {
		return true
	}
	if c.latency {
		want := instbench.ExpectedLatency(c.v)
		if want < 0 {
			return false
		}
		got, ok := res.Get("Core cycles")
		if !ok {
			return true
		}
		// instbench's BSF/BSR chains carry a 1-cycle OR that keeps the
		// chained value nonzero; every other checked chain is one
		// instruction long.
		if c.v.Form == instbench.FormRR && (c.v.Op == x86.BSF || c.v.Op == x86.BSR) {
			got--
		}
		return math.Abs(got-want) > 0.25
	}
	if c.v.Form == instbench.FormNone {
		return false
	}
	var mask x86.PortMask
	for p := 0; p < x86.NumPorts; p++ {
		v, ok := res.Get(fmt.Sprintf("PORT_%d", p))
		if !ok {
			return true
		}
		if v/4 > 0.02 { // per-block counts cover 4 instructions
			mask |= 1 << p
		}
	}
	return mask == 0 || mask&^instbench.ExpectedPorts(c.v) != 0
}

// insnTable is the insn-table workload: each pass evaluates every config
// through a fresh Skylake kernel-mode session (so nothing is served from
// a result cache), in a seeded order under a seeded root seed.
type insnTable struct {
	cfgs []insnConfig
	seed int64
	par  int
}

func openInsnTable(ctx context.Context, seed int64, par int) (instance, error) {
	cfgs, err := buildInsnConfigs()
	if err != nil {
		return nil, err
	}
	w := &insnTable{cfgs: cfgs, seed: seed, par: par}
	return openPasses(ctx, w.pass)
}

func (w *insnTable) pass(ctx context.Context, i int, tr *tracer, parent int64) (outcome, []byte, error) {
	n := len(w.cfgs)
	o := outcome{attempted: n}
	order := passRand(w.seed, i).Perm(n)
	batch := make([]nanobench.Config, n)
	for k, j := range order {
		batch[k] = w.cfgs[j].cfg
	}
	id := tr.begin("facade.open", parent, int64(i))
	s, err := nanobench.Open(
		nanobench.WithCPU("Skylake"),
		nanobench.WithMode(nanobench.Kernel),
		nanobench.WithSeed(passSeed(w.seed, i)),
		nanobench.WithParallelism(w.par),
	)
	tr.end(id)
	if err != nil {
		o.failed = n
		return o, nil, err
	}
	id = tr.begin("facade.run_batch", parent, int64(i))
	res, err := s.RunBatch(ctx, batch)
	tr.end(id)
	results := make([]*nanobench.Result, n)
	if res != nil {
		for k, j := range order {
			results[j] = res[k]
		}
	}
	for j, c := range w.cfgs {
		if insnMiss(c, results[j]) {
			o.failed++
		}
	}
	o.work = float64(n - o.failed)
	if err != nil || i != 0 {
		return o, nil, err
	}
	body, err := json.Marshal(results)
	return o, body, err
}
