// Package sched is a deterministic work-stealing batch executor for
// microbenchmark sweeps. It fans a slice of jobs — each a (CPU model,
// privilege mode, nano.Config) triple — out across a pool of
// independently-seeded simulated machines, one live machine per in-flight
// job (a machine.Machine is single-threaded), and memoizes results in a
// content-addressed cache so repeated sweeps hit memory instead of
// re-simulating. Machines are reused across evaluations: before each
// use, machine.(*Machine).Reset puts a pooled machine in exactly the
// state a fresh build with the job's seed has.
//
// # Seeding and determinism contract
//
// Results are byte-identical for any worker count. Two mechanisms make the
// schedule invisible in the output:
//
//  1. Every job's machine seed is derived from the executor's root seed and
//     a stable index — never from scheduling order. DeriveSeed(root, i)
//     mixes the root seed and index through SplitMix64.
//
//  2. Jobs are deduplicated by content key before execution. All jobs in a
//     batch that share a key (same CPU, mode, and canonicalized Config) are
//     fulfilled by a single evaluation whose seed comes from the LOWEST job
//     index with that key. Which worker runs the evaluation, and when, can
//     therefore never influence which seed produced a result.
//
// The cache is keyed by content plus the derived seed (see KeyOf and
// withSeed), so re-running a sweep returns the identical values without
// re-simulating, while the same content at a different batch index — a
// different seed — is honestly re-evaluated rather than served a result
// computed under another seed. Cache hits hand out deep copies:
// pointer-distinct, value-equal results. A cache may be bounded with
// least-recently-used eviction (NewCacheLRU) — the configuration
// long-running services use — and exposes occupancy and hit/miss/
// eviction counters (Info) for their stats endpoints.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"nanobench/internal/nano"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// Job is one microbenchmark evaluation: a Config to run on a named CPU
// model in the given privilege mode.
type Job struct {
	// CPU names a machine model from the uarch catalog (e.g. "Skylake").
	CPU string
	// Mode selects user- or kernel-space operation.
	Mode machine.Mode
	// Cfg is the microbenchmark configuration to evaluate.
	Cfg nano.Config
	// BigArea, when nonzero, pre-allocates a physically-contiguous region
	// of that many bytes (Config.UseBigArea requires it).
	BigArea uint64
}

// Options configures an Executor.
type Options struct {
	// Workers bounds the number of concurrently simulated machines;
	// 0 or negative means runtime.NumCPU().
	Workers int
	// RootSeed is the root of the per-job seed derivation (DeriveSeed).
	// The zero value is a valid root seed.
	RootSeed int64
	// Cache, when non-nil, memoizes results across Run/Stream calls. An
	// executor without a cache still deduplicates within each batch.
	Cache *Cache
}

// Item is one delivered result of a streaming batch.
type Item struct {
	// Index is the position of the job in the submitted slice.
	Index int
	// Result is the evaluation's outcome; nil when Err is set.
	Result *nano.Result
	// Err reports a failed job; the remaining jobs still run.
	Err error
	// CacheHit marks a result served from the executor's cache rather
	// than a fresh simulation.
	CacheHit bool
}

// Executor runs batches of jobs. It is safe for concurrent use.
type Executor struct {
	opts Options
}

// New builds an executor.
func New(opts Options) *Executor { return &Executor{opts: opts} }

// DeriveSeed derives the machine seed for the job at the given index from
// the root seed, via a SplitMix64 step. The derivation depends only on
// (root, index), never on scheduling order.
func DeriveSeed(root int64, index int) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run evaluates all jobs and returns their results in job order. Failed
// jobs leave a nil entry; the joined per-job errors are returned alongside
// the successful results (an error in one job never wedges the pool).
func (e *Executor) Run(jobs []Job) ([]*nano.Result, error) {
	return e.RunContext(context.Background(), jobs)
}

// RunContext is Run bounded by a context. On cancellation (or a missed
// deadline) the already-completed jobs keep their results — partial
// results are returned, not discarded — and every job that was skipped or
// interrupted carries the context's error in the joined error value.
func (e *Executor) RunContext(ctx context.Context, jobs []Job) ([]*nano.Result, error) {
	results := make([]*nano.Result, len(jobs))
	errs := make([]error, len(jobs))
	e.execute(ctx, jobs, nil, func(it Item) {
		results[it.Index] = it.Result
		errs[it.Index] = it.Err
	})
	return results, errors.Join(errs...)
}

// Stream evaluates all jobs and delivers their results over the returned
// channel in job-index order, each as soon as it and all its predecessors
// are available. The channel is closed after the last item; the sequence
// of items is deterministic for any worker count.
func (e *Executor) Stream(jobs []Job) <-chan Item {
	return e.StreamContext(context.Background(), jobs)
}

// StreamContext is Stream bounded by a context. On cancellation the
// channel still delivers the completed prefix in order; jobs that were
// skipped or interrupted are delivered as Items carrying the context's
// error, and the channel closes promptly after the last one — consumers
// never block on a cancelled sweep, and no worker goroutine outlives it
// beyond the unit it was simulating.
func (e *Executor) StreamContext(ctx context.Context, jobs []Job) <-chan Item {
	return e.stream(ctx, jobs, nil)
}

// IndexedJob is a Job whose machine seed derives from an explicit batch
// index instead of the job's position in the submitted slice. It is the
// primitive behind sharded sweeps: a coordinator that expands and
// deduplicates a batch globally can split the surviving evaluations
// across shards while every shard still derives exactly the seeds the
// single-process batch would have — making the merged results
// byte-identical by construction.
type IndexedJob struct {
	// Job is the evaluation to run.
	Job Job
	// Index is the batch index the machine seed derives from
	// (DeriveSeed(root, Index)); it also keys the result cache together
	// with the job's content.
	Index int
}

// StreamIndexed evaluates the indexed jobs and delivers their results
// like StreamContext: Item.Index is the POSITION in the submitted slice
// (0-based, delivered in order), while each machine seed derives from
// the IndexedJob's explicit Index. Jobs sharing a content key are
// deduplicated; the representative is the one with the lowest explicit
// Index, matching what a whole-batch submission would pick.
func (e *Executor) StreamIndexed(ctx context.Context, ijobs []IndexedJob) <-chan Item {
	jobs := make([]Job, len(ijobs))
	seedIdx := make([]int, len(ijobs))
	for i, ij := range ijobs {
		jobs[i] = ij.Job
		seedIdx[i] = ij.Index
	}
	return e.stream(ctx, jobs, seedIdx)
}

// stream sequences execute's out-of-order deliveries into an in-order
// channel. A nil seedIdx means positional seeding (seedIdx[i] == i).
func (e *Executor) stream(ctx context.Context, jobs []Job, seedIdx []int) <-chan Item {
	// Buffered to len(jobs): the sequencer can always run to completion
	// and exit, so a consumer that abandons the channel early leaks
	// nothing beyond the (garbage-collectable) buffered items.
	out := make(chan Item, len(jobs))
	go func() {
		defer close(out)
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		ready := make([]bool, len(jobs))
		items := make([]Item, len(jobs))
		go func() {
			e.execute(ctx, jobs, seedIdx, func(it Item) {
				mu.Lock()
				items[it.Index] = it
				ready[it.Index] = true
				cond.Broadcast()
				mu.Unlock()
			})
		}()
		for i := range jobs {
			mu.Lock()
			for !ready[i] {
				cond.Wait()
			}
			it := items[i]
			mu.Unlock()
			out <- it
		}
	}()
	return out
}

// unit is one deduplicated evaluation: the set of job positions sharing a
// content key. The position with the lowest seed index is the
// representative; it alone determines the machine seed.
type unit struct {
	key  Key
	rep  int
	seed int // the representative's seed-deriving batch index
	jobs []int
}

// execute runs the batch, calling deliver exactly once per job position
// (from worker goroutines; deliver must be safe for concurrent use). A nil
// seedIdx derives each machine seed from the job's position; otherwise
// seedIdx[i] supplies the batch index position i's seed derives from.
// When ctx is cancelled, in-flight units still deliver (the runner aborts
// between measurement runs), and every not-yet-started unit delivers the
// context's error instead of simulating.
func (e *Executor) execute(ctx context.Context, jobs []Job, seedIdx []int, deliver func(Item)) {
	at := func(i int) int { return i }
	if seedIdx != nil {
		at = func(i int) int { return seedIdx[i] }
	}
	byKey := make(map[Key]*unit, len(jobs))
	var units []*unit
	for i, j := range jobs {
		k := KeyOf(j)
		u := byKey[k]
		if u == nil {
			u = &unit{key: k, rep: i, seed: at(i)}
			byKey[k] = u
			units = append(units, u)
		} else if at(i) < u.seed {
			u.rep, u.seed = i, at(i)
		}
		u.jobs = append(u.jobs, i)
	}

	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(units) {
		workers = len(units)
	}
	if len(units) == 0 {
		return
	}

	// Deal the units round-robin into per-worker deques; idle workers
	// steal from the tail of their neighbours' deques. Placement and
	// stealing affect only which worker simulates a unit — every result
	// is fully determined by the unit itself.
	queues := make([]*deque, workers)
	for w := range queues {
		queues[w] = &deque{}
	}
	for i, u := range units {
		queues[i%workers].push(u)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				u, ok := queues[self].pop()
				if !ok {
					u, ok = steal(queues, self)
				}
				if !ok {
					return
				}
				e.runUnit(ctx, jobs, u, deliver)
			}
		}(w)
	}
	wg.Wait()
}

// runUnit fulfils every job index of one deduplicated unit: from the cache
// when possible, otherwise by simulating the representative job. The cache
// key pins both the content and the derived seed, so a hit is guaranteed
// to equal what a cold evaluation would compute.
func (e *Executor) runUnit(ctx context.Context, jobs []Job, u *unit, deliver func(Item)) {
	if err := ctx.Err(); err != nil {
		for _, i := range u.jobs {
			deliver(Item{Index: i, Err: err})
		}
		return
	}
	seed := DeriveSeed(e.opts.RootSeed, u.seed)
	cacheKey := withSeed(u.key, seed)
	if c := e.opts.Cache; c != nil {
		if hit := c.get(cacheKey); hit != nil {
			for _, i := range u.jobs {
				deliver(Item{Index: i, Result: hit.Clone(), CacheHit: true})
			}
			return
		}
	}
	j := jobs[u.rep]
	res, err := evaluate(ctx, j, seed)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Interrupted mid-evaluation: report the bare context error so
			// callers can distinguish cancellation from real failures. (A
			// genuine evaluation error that merely coincides with a
			// cancelled context falls through and keeps its cause.)
			for _, i := range u.jobs {
				deliver(Item{Index: i, Err: err})
			}
			return
		}
		err = fmt.Errorf("sched: job %d (%s, %v): %w", u.rep, j.CPU, j.Mode, err)
		for _, i := range u.jobs {
			deliver(Item{Index: i, Err: err})
		}
		return
	}
	if c := e.opts.Cache; c != nil {
		c.put(cacheKey, res)
	}
	deliver(Item{Index: u.rep, Result: res})
	for _, i := range u.jobs {
		if i != u.rep {
			deliver(Item{Index: i, Result: res.Clone()})
		}
	}
}

// machines pools evaluation machines per CPU model, keyed by catalog
// name. The map is filled once at start-up and only read afterwards; each
// sync.Pool is safe for the workers, shards and handlers that share it.
// Only machines lent through Lend (by evaluate and the internal
// experiment drivers) are pooled, and only between a release and the next
// lend: a machine handed to a caller for keeps is never reused behind its
// back. Being a sync.Pool, it empties across garbage collections, so idle
// machines do not pin memory.
var machines = func() map[string]*sync.Pool {
	pools := map[string]*sync.Pool{}
	for _, cpu := range append(uarch.Table1(), uarch.Zen()) {
		pools[cpu.Name] = new(sync.Pool)
	}
	return pools
}()

// evaluate simulates one job on a lent runner and returns the machine to
// the pool once the run returns; results never reference machine memory.
func evaluate(ctx context.Context, j Job, seed int64) (*nano.Result, error) {
	r, release, err := Lend(j, seed)
	if err != nil {
		return nil, err
	}
	defer release()
	return r.RunContext(ctx, j.Cfg)
}

// Lend lends a runner set up for the job's CPU model, mode and big area
// (its Cfg is not used), in exactly the state cpu.NewMachine(seed) plus
// nano.NewRunner builds: a pooled machine reset for the seed, or a new one
// when the pool is empty. The caller calls release once it is done with
// the runner and with everything built on it (cachetools tools, sibling
// tools); release returns the machine to the pool, and calling it again
// does nothing. A set-up error drops the machine.
func Lend(j Job, seed int64) (*nano.Runner, func(), error) {
	cpu, err := uarch.ByName(j.CPU)
	if err != nil {
		return nil, nil, err
	}
	pool := machines[cpu.Name]
	var r *nano.Runner
	if m, ok := pool.Get().(*machine.Machine); ok {
		r, err = resetRunner(m, j, seed)
	} else {
		r, err = buildRunner(cpu, j, seed)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, sync.OnceFunc(func() { pool.Put(r.M) }), nil
}

// buildRunner builds a new machine of the CPU model with the given seed
// and a runner on it for the job. It is the cold path Lend takes when the
// pool is empty; BenchmarkNewMachine and TestNewMachineFootprint measure
// it.
func buildRunner(cpu uarch.CPU, j Job, seed int64) (*nano.Runner, error) {
	m, err := cpu.NewMachine(seed)
	if err != nil {
		return nil, err
	}
	return newRunner(m, j)
}

// resetRunner resets a used machine to the state a fresh build with the
// given seed has and puts a runner for the job on it: the pooled path.
func resetRunner(m *machine.Machine, j Job, seed int64) (*nano.Runner, error) {
	if err := m.Reset(seed); err != nil {
		return nil, err
	}
	return newRunner(m, j)
}

// newRunner maps the job's regions on a fresh machine: the runner for its
// mode, plus the big area when the job asks for one.
func newRunner(m *machine.Machine, j Job) (*nano.Runner, error) {
	r, err := nano.NewRunner(m, j.Mode)
	if err != nil {
		return nil, err
	}
	if j.BigArea > 0 {
		if err := r.AllocBigArea(j.BigArea); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// deque is a mutex-guarded work-stealing deque of units: the owner pops
// from the front — units were dealt in index order, so completion tracks
// job order and Stream consumers see progressive delivery instead of a
// burst at the end — and thieves take from the back, keeping contention
// at opposite ends. (Units never spawn further units, so the classic
// LIFO-owner discipline would buy no locality here.)
type deque struct {
	mu    sync.Mutex
	units []*unit
}

func (d *deque) push(u *unit) {
	d.mu.Lock()
	d.units = append(d.units, u)
	d.mu.Unlock()
}

func (d *deque) pop() (*unit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.units) == 0 {
		return nil, false
	}
	u := d.units[0]
	d.units = d.units[1:]
	return u, true
}

func (d *deque) stealTail() (*unit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return nil, false
	}
	u := d.units[n-1]
	d.units = d.units[:n-1]
	return u, true
}

// steal scans the other workers' deques round-robin starting after self.
// Units never spawn further units, so an empty sweep means the pool is
// drained and the worker can retire.
func steal(queues []*deque, self int) (*unit, bool) {
	for off := 1; off < len(queues); off++ {
		if u, ok := queues[(self+off)%len(queues)].stealTail(); ok {
			return u, true
		}
	}
	return nil, false
}

// ForEach runs fn(0), …, fn(n-1) across min(workers, n) goroutines (0 or
// negative workers means runtime.NumCPU()) and returns the joined errors.
// Every index runs exactly once even when earlier indices fail; callers
// that need deterministic output should write into per-index slots and
// emit them after ForEach returns. It is the generic fan-out the
// experiment sweeps use for work — like Table I's per-CPU policy
// inference — that is coarser than a single nano.Config.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
