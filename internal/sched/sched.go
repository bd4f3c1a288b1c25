// Package sched is a deterministic batch executor for microbenchmark
// sweeps. It fans a slice of jobs — each a (CPU model, privilege mode,
// nano.Config) triple — out across independently-seeded simulated
// machines, one live machine per in-flight job (a machine.Machine is
// single-threaded), and memoizes results in a content-addressed cache so
// repeated sweeps hit memory instead of re-simulating. Machines are reused
// across evaluations: before each use, machine.(*Machine).Reset puts a
// pooled machine in exactly the state a fresh build with the job's seed
// has.
//
// ForEach is the repository's one fan-out and InOrder its one in-order
// merge: the executor, the server's multi-session merge, the experiment
// sweeps and the age graphs fan out through ForEach, and the executor's
// streams and the server's merge deliver through InOrder.
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
// pointer-distinct, value-equal results; only the renderings RunRendered
// stores on entries are handed out shared. A cache may be bounded with
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
	"sync/atomic"

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
	e.execute(ctx, jobs, func(it Item) {
		results[it.Index] = it.Result
		errs[it.Index] = it.Err
	})
	return results, errors.Join(errs...)
}

// RunOne evaluates j exactly as RunContext(ctx, []Job{j}) does — batch
// index 0, the same cache key, one cache lookup, the same result and
// error text — but on the caller's goroutine, with no dedupe map or
// ForEach worker.
func (e *Executor) RunOne(ctx context.Context, j Job) (*nano.Result, error) {
	it, _, _ := e.runOne(ctx, j, false)
	return it.Result, it.Err
}

// RunRendered evaluates j as RunOne does and returns render's bytes for
// the result, plus whether the result came from the cache. When the cache
// entry already carries a rendering, RunRendered returns those bytes
// without evaluating, cloning or rendering. Otherwise it runs j's unit,
// and when the result was a cache hit it attaches the rendering to the
// entry, so a result evaluated once retains nothing. Either way the call
// counts exactly one cache lookup, as RunOne does.
//
// A stored rendering answers every later identical job, so render must
// be a pure function of the result and the job's CPU and mode, and every
// RunRendered caller sharing a cache must pass the same one. The
// returned bytes may be shared: callers must not modify them.
func (e *Executor) RunRendered(ctx context.Context, j Job, render func(*nano.Result) ([]byte, error)) (data []byte, cacheHit bool, err error) {
	it, stored, cacheKey := e.runOne(ctx, j, true)
	if stored != nil {
		return stored, true, nil
	}
	if it.Err != nil {
		return nil, false, it.Err
	}
	if data, err = render(it.Result); err != nil {
		return nil, false, err
	}
	if it.CacheHit {
		e.opts.Cache.attach(cacheKey, data)
	}
	return data, it.CacheHit, nil
}

// runOne is the one-job path RunOne and RunRendered share: j runs as the
// unit of a one-job batch (batch index 0, the cache key withSeed derives
// for it) through runUnit on the caller's goroutine, with KeyOf computed
// once, and it returns the item and the cache key. With rendered set, a
// rendering stored on j's cache entry answers the call instead: it comes
// back as stored, counted as the call's one lookup, and nothing runs.
func (e *Executor) runOne(ctx context.Context, j Job, rendered bool) (it Item, stored []byte, cacheKey Key) {
	if err := ctx.Err(); err != nil {
		return Item{Err: err}, nil, cacheKey
	}
	u := &unit{cacheKey: withSeed(KeyOf(j), DeriveSeed(e.opts.RootSeed, 0)), jobs: []int{0}}
	if c := e.opts.Cache; rendered && c != nil {
		if stored = c.rendering(u.cacheKey); stored != nil {
			return Item{}, stored, u.cacheKey
		}
	}
	e.runUnit(ctx, []Job{j}, u, func(got Item) { it = got })
	return it, nil, u.cacheKey
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
	return InOrder(len(jobs), func(put func(Item)) { e.execute(ctx, jobs, put) })
}

// InOrder runs produce on its own goroutine and returns a channel that
// delivers the items produce puts in Index order, each as soon as it and
// all its predecessors are ready. produce must put exactly one item for
// every index in [0, n), from any goroutines, before it returns; the
// channel closes when produce returns. The channel is buffered to n, so
// the producer never waits for the consumer, and a consumer that
// abandons the channel early leaks nothing beyond the buffered items.
func InOrder(n int, produce func(put func(Item))) <-chan Item {
	out := make(chan Item, n)
	go func() {
		defer close(out)
		var mu sync.Mutex
		items := make([]Item, n)
		ready := make([]bool, n)
		next := 0
		produce(func(it Item) {
			mu.Lock()
			defer mu.Unlock()
			items[it.Index], ready[it.Index] = it, true
			// Never blocks: out has room for all n items.
			for ; next < n && ready[next]; next++ {
				out <- items[next]
			}
		})
	}()
	return out
}

// unit is one deduplicated evaluation: the set of job positions sharing a
// content key. The lowest position is the representative; it alone
// determines the machine seed, and with it the cache key.
type unit struct {
	cacheKey Key
	rep      int
	jobs     []int
}

// execute runs the batch, calling deliver exactly once per job position
// (from worker goroutines; deliver must be safe for concurrent use).
// When ctx is cancelled, in-flight units still deliver (the runner aborts
// between measurement runs), and every not-yet-started unit delivers the
// context's error instead of simulating. Which worker runs a unit affects
// nothing: every result is fully determined by the unit itself.
func (e *Executor) execute(ctx context.Context, jobs []Job, deliver func(Item)) {
	byKey := make(map[Key]*unit, len(jobs))
	var units []*unit
	for i, j := range jobs {
		k := KeyOf(j)
		u := byKey[k]
		if u == nil {
			u = &unit{cacheKey: withSeed(k, DeriveSeed(e.opts.RootSeed, i)), rep: i}
			byKey[k] = u
			units = append(units, u)
		}
		u.jobs = append(u.jobs, i)
	}
	// runUnit reports failures through deliver, so ForEach's joined
	// error is always nil.
	_ = ForEach(len(units), e.opts.Workers, func(i int) error {
		e.runUnit(ctx, jobs, units[i], deliver)
		return nil
	})
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
	if c := e.opts.Cache; c != nil {
		if hit := c.get(u.cacheKey); hit != nil {
			for _, i := range u.jobs {
				deliver(Item{Index: i, Result: hit.Clone(), CacheHit: true})
			}
			return
		}
	}
	j := jobs[u.rep]
	res, err := evaluate(ctx, j, DeriveSeed(e.opts.RootSeed, u.rep))
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
		c.put(u.cacheKey, res)
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
// sync.Pool is safe for the concurrent executors and experiments that
// share it.
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

// ForEach runs fn(0), …, fn(n-1) on min(workers, n) goroutines (0 or
// negative workers means runtime.NumCPU()) and returns the joined errors.
// The goroutines claim indices in increasing order from one shared
// cursor, so every index runs exactly once even when others fail, at most
// min(workers, n) calls run at once, and one worker runs the indices in
// order. Callers that need deterministic output write into per-index
// slots, or put items into InOrder.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
