package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs. The why strings are
// restated in BENCHMARK.json.
type workload struct {
	name string
	why  string
	// unit names what work_per_s counts for this workload.
	unit string
	// open generates the workload's inputs from seed and runs its warm-up
	// pass, using at most par workers and connections.
	open func(ctx context.Context, seed int64, par int) (instance, error)
}

var workloads = []workload{
	{
		name: "insn-table",
		why:  "§V sweep: every instbench config per pass via Session.RunBatch, fresh cache; x86, codegen, trace engine and PMU, no cache hits or seq-replay",
		unit: "configs",
		open: openInsnTable,
	},
	{
		name: "policy-campaign",
		why:  "§VI campaign: policy inference on 10 models x 3 levels plus 3 age graphs; cachetools, policy kernels, hierarchy and seq-replay, no result cache",
		unit: "passes",
		open: openPolicyCampaign,
	},
	{
		name: "set-dueling",
		why:  "§VI-C3 leader-set scan of 60 seeded (slice,set) pairs on 3 adaptive models; RunSeqTrials on many sets, where seq-replay templates and the image memo dominate",
		unit: "sets",
		open: openSetDueling,
	},
	{
		name: "serve-mixed",
		why:  "nanobenchd on loopback, 2 closed-loop clients: 90% hot /v1/run (cache hits), 10% fresh configs, every 200th op a 64-config sweep job",
		unit: "requests",
		open: openServeMixed,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload after set-up.
type instance interface {
	// run drives the workload until the deadline, recording every
	// operation, with inputs drawn from the given stream of the seed;
	// tr is nil for untraced runs.
	run(ctx context.Context, until time.Time, stream int, tr *tracer, rec *recorder) error
	// digest is the SHA-256 of the warm-up pass's result bytes, a pure
	// function of the seed.
	digest() string
	close()
}

// outcome counts what one operation did: units of work completed
// correctly, sub-operations attempted, and how many of those failed
// (errors, bad replies, or disagreement with the simulator's ground
// truth). A failed unit is not work: a change that makes operations fail
// fast must not read as higher throughput.
type outcome struct {
	work      float64
	attempted int
	failed    int
}

// recorder accumulates the timed loop's operations.
type recorder struct {
	mu sync.Mutex
	// lat holds operation latencies in milliseconds by class; +Inf marks
	// an operation that failed outright.
	lat       map[string][]float64
	work      float64
	attempted int
	failed    int
	elapsed   time.Duration
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

// add records one operation of the given class; errored marks it failed
// outright, which enters its latency as +Inf.
func (r *recorder) add(class string, d time.Duration, o outcome, errored bool) {
	ms := float64(d) / float64(time.Millisecond)
	if errored {
		ms = math.Inf(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[class] = append(r.lat[class], ms)
	r.work += o.work
	r.attempted += o.attempted
	r.failed += o.failed
}

// all returns every recorded latency, regardless of class.
func (r *recorder) all() []float64 {
	var out []float64
	for _, v := range r.lat {
		out = append(out, v...)
	}
	return out
}

// drive runs inst's timed loop for d on input stream stream. The children
// of one run take streams 0, 1, ..., so together they cover distinct
// inputs, and a run's cost hinges less on what one seed happens to draw.
func drive(ctx context.Context, inst instance, d time.Duration, stream int, tr *tracer) (*recorder, error) {
	rec := newRecorder()
	start := time.Now()
	err := inst.run(ctx, start.Add(d), stream, tr, rec)
	rec.elapsed = time.Since(start)
	return rec, err
}

// passFunc runs pass i of a pass-structured workload. The pass's inputs
// are a function of the workload seed and i alone; pass 0 is the warm-up,
// and only it returns its result bytes (for the digest). Failures are
// counted in the outcome and leave their units out of its work; a pass
// with any failure, or one that returns an error (which is logged),
// enters its latency as +Inf.
type passFunc func(ctx context.Context, i int, tr *tracer, parent int64) (outcome, []byte, error)

// passes drives a pass-structured workload: the warm-up pass at open,
// then numbered passes until the deadline.
type passes struct {
	pass passFunc
	next int
	dig  string
}

func openPasses(ctx context.Context, pass passFunc) (*passes, error) {
	o, body, err := pass(ctx, 0, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if o.failed > 0 {
		// The digest would be taken over a wrong result.
		return nil, fmt.Errorf("warm-up pass: %d of %d operations failed", o.failed, o.attempted)
	}
	sum := sha256.Sum256(body)
	return &passes{pass: pass, next: 1, dig: hex.EncodeToString(sum[:])}, nil
}

func (p *passes) run(ctx context.Context, until time.Time, stream int, tr *tracer, rec *recorder) error {
	for time.Now().Before(until) {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := streamBase(stream) + p.next
		p.next++
		id := tr.begin("pass", 0, int64(i))
		start := time.Now()
		o, _, err := p.pass(ctx, i, tr, id)
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbbench: pass %d: %v\n", i, err)
		}
		rec.add("pass", d, o, err != nil || o.failed > 0)
	}
	return nil
}

func (p *passes) digest() string { return p.dig }
func (p *passes) close()         {}

// passSeed derives the seed of pass i (or of any other numbered input
// stream) from the workload seed with the SplitMix64 finalizer, so
// streams are independent and never zero (zero selects defaults in
// several option structs).
func passSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z >> 1)
}

// streamBase is the first input index of stream k: streams are 1<<24
// indices apart, above the traced run's probe streams (1<<20 + k).
func streamBase(k int) int { return k << 24 }

// passRand returns the input generator of pass i.
func passRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(passSeed(seed, i)))
}
