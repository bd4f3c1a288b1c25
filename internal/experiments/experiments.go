// Package experiments regenerates every table and figure of the nanoBench
// paper's evaluation on the simulated machines, plus ablations, as the
// experiments E1–E11 (each function prints under its E-numbered
// heading). The cmd/experiments binary and the top-level benchmark
// harness both drive these functions.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"nanobench"
	"nanobench/internal/cachetools"
	"nanobench/internal/instbench"
	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sched"
	"nanobench/internal/sim/machine"
	"nanobench/internal/sim/policy"
	"nanobench/internal/uarch"
)

// Seed is the machine seed used throughout the experiments.
const Seed = 42

// Workers bounds the parallelism of the sweep experiments (Table1,
// InstructionTable, SetDueling, LoopVsUnroll); 0 means runtime.NumCPU().
// The schedule never influences results — see the sched package docs.
var Workers = 0

// resultCache memoizes batch evaluations across experiment invocations, so
// re-running a sweep (the benchmark harness loops them) hits memory
// instead of re-simulating.
var resultCache = sched.NewCache()

// lend lends a runner from sched's machine pool (sched.Lend); the
// lent-equals-fresh test swaps in freshly built machines.
var lend = sched.Lend

// lender borrows the runners of one experiment, row of cells or age graph
// from sched's machine pool, each seeded with Seed and so in exactly the
// state a fresh cpu.NewMachine(Seed) runner has, and returns them all at
// once with release, after their last use. It is safe for concurrent
// use: age-graph siblings borrow from worker goroutines.
type lender struct {
	mu       sync.Mutex
	releases []func()
}

// runner borrows a runner of the CPU model in the given mode.
func (l *lender) runner(cpuName string, mode machine.Mode) (*nano.Runner, error) {
	r, release, err := lend(sched.Job{CPU: cpuName, Mode: mode}, Seed)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.releases = append(l.releases, release)
	l.mu.Unlock()
	return r, nil
}

// tool borrows a kernel-mode runner and prepares a cache-analysis tool on
// it.
func (l *lender) tool(cpuName string) (*cachetools.Tool, error) {
	r, err := l.runner(cpuName, machine.Kernel)
	if err != nil {
		return nil, err
	}
	return cachetools.New(r)
}

// release returns every borrowed machine to the pool.
func (l *lender) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rel := range l.releases {
		rel()
	}
	l.releases = nil
}

// ExampleL1Latency reproduces the Section III-A example: the paper reports
// Instructions retired 1.00, Core cycles 4.00, Reference cycles 3.52,
// UOPS_ISSUED.ANY 1.00, ports 2/3 at 0.50 each, L1 hits 1.00.
func ExampleL1Latency(w io.Writer) (*nano.Result, error) {
	var l lender
	defer l.release()
	r, err := l.runner("Skylake", machine.Kernel)
	if err != nil {
		return nil, err
	}
	res, err := r.Run(nano.Config{
		Code:        nano.MustAsm("mov R14, [R14]"),
		CodeInit:    nano.MustAsm("mov [R14], R14"),
		WarmUpCount: 1,
		Events: perfcfg.MustParse(`
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
A1.04 UOPS_DISPATCHED_PORT.PORT_2
A1.08 UOPS_DISPATCHED_PORT.PORT_3
D1.01 MEM_LOAD_RETIRED.L1_HIT
D1.08 MEM_LOAD_RETIRED.L1_MISS`),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## E1: Section III-A example (L1 load latency, Skylake)")
	fmt.Fprint(w, res.String())
	return res, nil
}

// Clock supplies the wall-clock readings NanoBenchTiming times the tool
// with. A nil Clock means the real wall clock; tests inject a fake to
// keep the experiment deterministic (the detrand invariant, docs/LINTS.md).
type Clock func() time.Time

// NanoBenchTiming measures the wall-clock execution time of one nanoBench
// evaluation (Section III-K: one NOP, unrollCount 100, loopCount 0,
// nMeasurements 10, four events; the paper reports ~15 ms kernel / ~50 ms
// user on an i7-8700K). Unlike every other experiment, the measurand here
// is the tool's own elapsed time, so the clock is a parameter rather
// than simulated state.
func NanoBenchTiming(w io.Writer, clock Clock) (kernel, user time.Duration, err error) {
	if clock == nil {
		// E2 quantifies real tool overhead, off the deterministic
		// result path; this default is the CLI behaviour.
		//nanolint:allow detrand E2's measurand is the tool's own wall time (Section III-K); deterministic callers inject a Clock
		clock = time.Now
	}
	cfg := nano.Config{
		Code:          nano.MustAsm("nop"),
		UnrollCount:   100,
		NMeasurements: 10,
		WarmUpCount:   1,
		Events: perfcfg.MustParse(`
0E.01 UOPS_ISSUED.ANY
A1.01 PORT0
A1.02 PORT1
C5.00 BR_MISP`),
	}
	timeIt := func(mode machine.Mode) (time.Duration, error) {
		var l lender
		defer l.release()
		r, err := l.runner("CoffeeLake", mode)
		if err != nil {
			return 0, err
		}
		if _, err := r.Run(cfg); err != nil { // warm the host paths
			return 0, err
		}
		start := clock()
		if _, err := r.Run(cfg); err != nil {
			return 0, err
		}
		return clock().Sub(start), nil
	}
	kernel, err = timeIt(machine.Kernel)
	if err != nil {
		return
	}
	user, err = timeIt(machine.User)
	if err != nil {
		return
	}
	fmt.Fprintln(w, "## E2: execution time of one nanoBench evaluation (Section III-K)")
	fmt.Fprintf(w, "kernel-space: %.1f ms (paper: ~15 ms)\n", kernel.Seconds()*1000)
	fmt.Fprintf(w, "user-space:   %.1f ms (paper: ~50 ms)\n", user.Seconds()*1000)
	return
}

// Table1Row is one row of the reproduced Table I.
type Table1Row struct {
	CPU              string
	L1, L2, L3       string // inferred policy names ("" = inference failed)
	L1OK, L2OK, L3OK bool
}

// Table1 reruns the replacement-policy inference on every Table I machine
// model and compares with the expected (injected) policies. For the
// adaptive Ivy Bridge / Haswell / Broadwell models the deterministic
// leader sets are inferred; the probabilistic leaders are reported as
// "probabilistic" (the paper refers to the age graphs for those).
func Table1(w io.Writer, quick bool) ([]Table1Row, error) {
	cpus := uarch.Table1()
	if quick {
		cpus = []uarch.CPU{cpus[3], cpus[6]} // IvyBridge, Skylake
	}
	// One row of cells per model, run in order on one tool: a model's
	// inferences share the tool's memoized candidate signatures.
	rows := make([][]cell, len(cpus))
	for i, cpu := range cpus {
		rows[i] = []cell{newCell(cpu, cachetools.L1), newCell(cpu, cachetools.L2), newCell(cpu, cachetools.L3)}
		if a := cpu.L3Adaptive; a != nil {
			// The stochastic leader must defeat every deterministic
			// candidate.
			rows[i] = append(rows[i], cell{cpu, cachetools.L3, rangeSlice(a.BRanges, 780), 780, "probabilistic"})
		}
	}
	results, err := inferCells(context.Background(), rows, 120, Seed, Workers, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## E3: Table I — replacement policies by level")
	fmt.Fprintf(w, "%-12s %-6s %-22s %-22s %s\n", "CPU", "", "L1", "L2", "L3")
	out := make([]Table1Row, len(cpus))
	for i, cs := range results {
		row := Table1Row{CPU: cpus[i].Name, L1: cs[0].Policy, L2: cs[1].Policy, L3: cs[2].Policy,
			L1OK: cs[0].OK, L2OK: cs[1].OK, L3OK: cs[2].OK}
		if len(cs) > 3 {
			if cs[3].OK {
				row.L3 += " + probabilistic leaders"
			} else {
				row.L3 += " + UNEXPECTED " + cs[3].Policy
				row.L3OK = false
			}
		}
		fmt.Fprintf(w, "%-12s %-6s %-22s %-22s %s\n", row.CPU,
			mark(row.L1OK)+mark(row.L2OK)+mark(row.L3OK), row.L1, row.L2, row.L3)
		out[i] = row
	}
	return out, nil
}

// mark renders an inference outcome as a check or a cross.
func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// policiesEquivalent reports whether two policy names behave identically
// on a probe suite of random sequences. The inference reports one
// representative per behavioural class, which may be a different (but
// observationally equivalent) name than the injected ground truth.
// "probabilistic", the outcome no deterministic candidate survives, is
// equivalent only to itself: no policy has that name.
func policiesEquivalent(a, b string, assoc int) bool {
	if a == b {
		return true
	}
	pa, errA := policy.New(a, assoc, rand.New(rand.NewSource(1)))
	pb, errB := policy.New(b, assoc, rand.New(rand.NewSource(1)))
	if errA != nil || errB != nil {
		return false
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		n := 2*assoc + rng.Intn(assoc)
		seq := make([]int, n)
		for j := range seq {
			seq[j] = rng.Intn(assoc + 4)
		}
		if policy.CountHits(pa, seq) != policy.CountHits(pb, seq) {
			return false
		}
	}
	return true
}

// Figure1 regenerates the Ivy Bridge age graph (Section VI-D, Figure 1):
// access sequence <WBINVD> B0..B11 in an L3 set with the probabilistic
// QLRU_H11_MR161_R1_U2 policy, measuring how long each block survives as
// fresh blocks stream in.
func Figure1(w io.Writer, quick bool) (*cachetools.AgeGraph, error) {
	maxFresh, step, trials := 200, 8, 32
	if quick {
		maxFresh, step, trials = 64, 16, 8
	}
	g, err := ageGraph("IvyBridge", 0, 768, Workers, maxFresh, step, trials)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## E4: Figure 1 — Ivy Bridge age graph, L3 set 768 (probabilistic leader)")
	fmt.Fprintf(w, "# trials per point: %d\n", trials)
	fmt.Fprint(w, g.Format())
	return g, nil
}

// Serialization demonstrates the Section IV-A1 claim: CPUID's execution
// time varies by hundreds of cycles between runs, LFENCE's does not, so
// CPUID-serialized measurements of short code are unreliable.
func Serialization(w io.Writer) (cpuidSpread, lfenceSpread float64, err error) {
	cfg := func(asm string) nano.Config {
		return nano.Config{Code: nano.MustAsm(asm), UnrollCount: 10, NMeasurements: 1, WarmUpCount: 1}
	}
	cpuidSpread, err = cycleSpread(machine.Kernel, cfg("mov rax, 0\ncpuid"))
	if err != nil {
		return
	}
	lfenceSpread, err = cycleSpread(machine.Kernel, cfg("lfence"))
	if err != nil {
		return
	}
	fmt.Fprintln(w, "## E5: serialization instructions (Section IV-A1)")
	fmt.Fprintf(w, "CPUID  per-instruction cycle spread over 20 runs: %.1f cycles\n", cpuidSpread)
	fmt.Fprintf(w, "LFENCE per-instruction cycle spread over 20 runs: %.1f cycles\n", lfenceSpread)
	fmt.Fprintln(w, "(paper: CPUID varies by hundreds of cycles; LFENCE is stable)")
	return
}

// InstructionTable runs the case-study-I sweep and summarizes agreement
// with the simulator's ground-truth instruction table (Section V's
// latency/throughput/port-usage characterization).
func InstructionTable(w io.Writer, quick bool) (total, latOK, portOK int, err error) {
	cpu, err := uarch.ByName("Skylake")
	if err != nil {
		return
	}
	variants := instbench.Variants()
	if quick {
		variants = variants[:20]
	}
	// The per-variant evaluations fan out through the batch scheduler;
	// repeated sweeps (identical encodings, benchmark-harness loops) hit
	// the content-addressed result cache.
	ms, err := instbench.SweepVariantsContext(context.Background(), cpu.Name, machine.Kernel, variants,
		sched.Options{Workers: Workers, RootSeed: Seed, Cache: resultCache})
	if err != nil {
		return
	}
	latTotal, portTotal := 0, 0
	for _, m := range ms {
		want := instbench.ExpectedLatency(m.Variant)
		if want >= 0 && m.Latency >= 0 {
			latTotal++
			if diff(m.Latency, want) <= 0.25 {
				latOK++
			}
		}
		if m.Variant.Form != instbench.FormNone {
			portTotal++
			exp := instbench.ExpectedPorts(m.Variant)
			if m.PortSet()&^exp == 0 && m.PortSet() != 0 {
				portOK++
			}
		}
	}
	total = len(ms)
	fmt.Fprintf(w, "## E6: instruction characterization sweep (%s)\n", cpu.Name)
	fmt.Fprintf(w, "variants measured: %d\n", total)
	fmt.Fprintf(w, "latencies matching ground truth: %d/%d\n", latOK, latTotal)
	fmt.Fprintf(w, "port sets within ground truth:   %d/%d\n", portOK, portTotal)
	fmt.Fprint(w, instbench.FormatTable(ms))
	return
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// LoopVsUnroll reproduces the Section III-F trade-off for a port-usage
// benchmark: shift µops issue only to ports 0 and 6, and the loop's JNZ
// also needs port 6, so measuring with a loop both slows the benchmark
// down and skews its port distribution — "the µops of the loop code
// compete for ports with the µops of the benchmark".
func LoopVsUnroll(w io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	events := perfcfg.MustParse("A1.01 PORT0\nA1.40 PORT6")
	body := "shl r8, 1\nshl r9, 1\nshl r10, 1\nshl r11, 1"
	cases := []struct {
		name         string
		loop, unroll int
	}{
		{"unroll=100, loop=0", 0, 100},
		{"unroll=1, loop=100", 100, 1},
		{"unroll=10, loop=10", 10, 10},
	}
	// The three configurations run through a facade session sharing the
	// experiments' result cache; results are deterministic for any
	// parallelism level.
	s, err := nanobench.Open(
		nanobench.WithCPU("Skylake"),
		nanobench.WithSeed(Seed),
		nanobench.WithParallelism(Workers),
		nanobench.WithCache(resultCache),
	)
	if err != nil {
		return nil, err
	}
	cfgs := make([]nano.Config, len(cases))
	for i, c := range cases {
		cfgs[i] = nano.Config{
			Code:        nano.MustAsm(body),
			UnrollCount: c.unroll,
			LoopCount:   c.loop,
			WarmUpCount: 2,
			BasicMode:   true, // include the loop context in the measurement
			Events:      events,
		}
	}
	results, err := s.RunBatch(context.Background(), cfgs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## E7: loops vs unrolling (Section III-F), benchmark: 4 independent SHLs")
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "configuration", "cycles/instr", "port0/instr", "port6/instr")
	for i, c := range cases {
		res := results[i]
		cyc, _ := res.Get("Core cycles")
		p0, _ := res.Get("PORT0")
		p6, _ := res.Get("PORT6")
		out[c.name] = cyc / 4
		fmt.Fprintf(w, "%-22s %12.3f %12.3f %12.3f\n", c.name, cyc/4, p0/4, p6/4)
	}
	fmt.Fprintln(w, "(the loop configuration under-reports the true 0.5 cycles/instr reciprocal")
	fmt.Fprintln(w, "throughput: the loop's DEC/JNZ µops interleave with the benchmark's on ports")
	fmt.Fprintln(w, "0/6, so \"using only unrolling is better\" for port-bound benchmarks, §III-F)")
	return out, nil
}

// NoMemAblation reproduces the Section III-I problem: when the benchmark's
// accesses map to the same L1 set as the counter-storage lines, storing
// counters to memory perturbs the measured cache state; the noMem mode
// avoids it.
func NoMemAblation(w io.Writer) (memHits, noMemHits float64, err error) {
	var l lender
	defer l.release()
	r, err := l.runner("Skylake", machine.Kernel)
	if err != nil {
		return
	}
	// Addresses in the R14 area that share the L1 set of the counter
	// array at nano.AuxBase+0x280.
	auxPhys, _ := r.M.Mem.Translate(nano.AuxBase + 0x280)
	set := r.M.Hier.L1D.SetIndex(auxPhys)
	basePhys, _ := r.M.Mem.Translate(nano.R14DefaultArea())
	first := (set - r.M.Hier.L1D.SetIndex(basePhys) + 64) % 64 * 64
	var initAsm, benchAsm string
	for i := 0; i < 8; i++ {
		off := first + i*4096
		initAsm += fmt.Sprintf("mov rbx, [r14+%d]\n", off)
		benchAsm += fmt.Sprintf("mov rbx, [r14+%d]\n", off)
	}
	run := func(noMem bool) (float64, error) {
		res, err := r.Run(nano.Config{
			Code:          nano.MustAsm(benchAsm),
			CodeInit:      nano.MustAsm(initAsm),
			UnrollCount:   1,
			NMeasurements: 1,
			BasicMode:     true,
			NoMem:         noMem,
			Events:        perfcfg.MustParse("D1.01 L1_HIT"),
		})
		if err != nil {
			return 0, err
		}
		v, _ := res.Get("L1_HIT")
		return v, nil
	}
	memHits, err = run(false)
	if err != nil {
		return
	}
	noMemHits, err = run(true)
	if err != nil {
		return
	}
	fmt.Fprintln(w, "## E8: noMem mode (Section III-I)")
	fmt.Fprintf(w, "8 loads conflicting with the counter-storage set, after priming:\n")
	fmt.Fprintf(w, "memory mode: %.0f / 8 L1 hits (counter writes evicted benchmark lines)\n", memHits)
	fmt.Fprintf(w, "noMem mode:  %.0f / 8 L1 hits\n", noMemHits)
	return
}

// KernelVsUserAccuracy reproduces the Section III-D accuracy claim: with
// interrupts disabled (kernel mode) repeated measurements are exact; in
// user mode timer interrupts perturb them.
func KernelVsUserAccuracy(w io.Writer) (kernelSpread, userSpread float64, err error) {
	cfg := nano.Config{
		Code:          nano.MustAsm("mov r14, [r14]"),
		CodeInit:      nano.MustAsm("mov [r14], r14"),
		UnrollCount:   100,
		LoopCount:     100,
		NMeasurements: 1,
		WarmUpCount:   1,
	}
	kernelSpread, err = cycleSpread(machine.Kernel, cfg)
	if err != nil {
		return
	}
	userSpread, err = cycleSpread(machine.User, cfg)
	if err != nil {
		return
	}
	fmt.Fprintln(w, "## E9: kernel vs user accuracy (Section III-D)")
	fmt.Fprintf(w, "pointer chase, 10k loads, per-load cycle spread over 20 runs:\n")
	fmt.Fprintf(w, "kernel mode (interrupts off): %.3f cycles\n", kernelSpread)
	fmt.Fprintf(w, "user mode (timer interrupts): %.3f cycles\n", userSpread)
	return
}

// cycleSpread runs cfg 20 times on one lent Skylake runner in the given
// mode and returns the maximum minus the minimum of its core cycles: the
// run-to-run variation Sections III-D and IV-A1 compare.
func cycleSpread(mode machine.Mode, cfg nano.Config) (float64, error) {
	var l lender
	defer l.release()
	r, err := l.runner("Skylake", mode)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 20; i++ {
		res, err := r.Run(cfg)
		if err != nil {
			return 0, err
		}
		v, _ := res.Get("Core cycles")
		lo, hi = min(lo, v), max(hi, v)
	}
	return hi - lo, nil
}

// ContiguousAlloc reproduces the Section IV-D behaviour: the greedy
// physically-contiguous allocator succeeds after boot, fails under
// fragmentation, and recovers after a reboot.
func ContiguousAlloc(w io.Writer) (freshOK, fragFail, rebootOK bool, err error) {
	var l lender
	defer l.release()
	r, err := l.runner("Skylake", machine.Kernel)
	if err != nil {
		return
	}
	err1 := r.AllocBigArea(32 << 20)
	freshOK = err1 == nil

	r2, err := l.runner("KabyLake", machine.Kernel)
	if err != nil {
		return
	}
	r2.M.Alloc.Fragment(0.02)
	err2 := r2.AllocBigArea(32 << 20)
	fragFail = err2 != nil
	if fragFail {
		if err3 := r2.RebootAndRemap(); err3 == nil {
			rebootOK = r2.AllocBigArea(32<<20) == nil
		}
	}
	fmt.Fprintln(w, "## E10: physically-contiguous allocation (Section IV-D)")
	fmt.Fprintf(w, "fresh system, 32 MB via repeated 4 MB kmalloc: success=%v\n", freshOK)
	fmt.Fprintf(w, "fragmented system: failure=%v (reboot recommended)\n", fragFail)
	fmt.Fprintf(w, "after reboot: success=%v\n", rebootOK)
	return
}

// DuelingResult summarizes one set-dueling scan.
type DuelingResult struct {
	CPU    string
	Report *cachetools.DuelingReport
	// Correct counts classifications matching the injected configuration.
	Correct, Total int
}

// SetDueling reruns the leader-set detection on the three adaptive models
// (Section VI-D: Ivy Bridge has dedicated sets 512-575 and 768-831 in all
// slices; Haswell only in slice 0; Broadwell crossed between slices).
func SetDueling(w io.Writer, quick bool) ([]DuelingResult, error) {
	sets := []int{500, 512, 544, 575, 600, 704, 768, 800, 831, 900}
	if quick {
		sets = []int{512, 575, 600, 768, 831}
	}
	// The three adaptive models are probed concurrently, one machine per
	// model; output blocks are buffered and emitted in model order.
	names := []string{"IvyBridge", "Haswell", "Broadwell"}
	out := make([]DuelingResult, len(names))
	blocks := make([]string, len(names))
	err := sched.ForEach(len(names), Workers, func(ni int) error {
		name := names[ni]
		cpu, err := uarch.ByName(name)
		if err != nil {
			return err
		}
		var l lender
		defer l.release()
		tool, err := l.tool(name)
		if err != nil {
			return err
		}
		slices := []int{0, 1}
		trials := 5 // stochastic leaders need several samples to reveal variance
		if quick {
			trials = 3
		}
		rep, err := tool.FindDedicatedSets(slices, sets, trials)
		if err != nil {
			return err
		}
		res := DuelingResult{CPU: name, Report: rep}
		for k, class := range rep.Class {
			res.Total++
			_, dedicated := cpu.ExpectedL3Policy(k[0], k[1])
			var want cachetools.SetClass
			switch {
			case !dedicated:
				want = cachetools.ClassFollower
			default:
				pol, _ := cpu.ExpectedL3Policy(k[0], k[1])
				if pol == cpu.L3Adaptive.PolicyA {
					want = cachetools.ClassDeterministic
				} else {
					want = cachetools.ClassStochastic
				}
			}
			if class == want {
				res.Correct++
			}
		}
		blocks[ni] = fmt.Sprintf("%s: %d/%d sets classified correctly\n%s",
			name, res.Correct, res.Total, rep.String())
		out[ni] = res
		return nil
	})
	fmt.Fprintln(w, "## E11: set-dueling leader detection (Section VI-C3/VI-D)")
	for _, b := range blocks {
		fmt.Fprint(w, b)
	}
	return out, err
}
