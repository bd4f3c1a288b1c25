package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// resetSequence is a config sequence whose every step depends on state a
// reset must restore. The user-mode pointer chase runs about 1.6 M cycles,
// so several timer interrupts draw from the machine RNG. The WRMSR config
// switches the prefetchers off (kernel mode) and leaves the MSR set; the
// stride-64 walk after it counts L2 hits, which only the prefetcher
// produces once the 1 MiB walk overflows the L2. The branch-miss counts of
// the looped configs see the predictor, the WBINVD latency sees every
// valid line, and consecutive configs programming the same events see the
// event-select MSRs. Each step gets its own seed.
func resetSequence() []Job {
	l2Hit := perfcfg.MustParse("D1.02 MEM_LOAD_RETIRED.L2_HIT")
	brMiss := perfcfg.MustParse("C5.00 BR_MISP_RETIRED")
	return []Job{
		{Cfg: nano.Config{Code: nano.MustAsm("add rbx, rbx"), UnrollCount: 10, LoopCount: 100, Events: brMiss}},
		{Cfg: nano.Config{
			CodeInit: nano.MustAsm("mov ecx, 0x1A4\nmov eax, 0xF\nxor edx, edx\nwrmsr"),
			Code:     nano.MustAsm("nop"), Events: l2Hit,
		}},
		{Cfg: nano.Config{
			Code:        nano.MustAsm("mov rax, [r14]\nadd r14, 64"),
			UnrollCount: 64, LoopCount: 256, NMeasurements: 1, Events: l2Hit,
		}},
		{Cfg: nano.Config{
			Code:        nano.MustAsm("mov r14, [r14]"),
			CodeInit:    nano.MustAsm("mov [r14], r14"),
			UnrollCount: 100, LoopCount: 2000, NMeasurements: 1,
		}},
		{Cfg: nano.Config{Code: nano.MustAsm("wbinvd"), UnrollCount: 2, Events: l2Hit}},
		{Cfg: nano.Config{
			Code:        nano.MustAsm("mov r14, [r14]"),
			CodeInit:    nano.MustAsm("mov [r14], r14"),
			UnrollCount: 50, UseBigArea: true, Events: l2Hit,
		}, BigArea: 4 << 20},
		{Cfg: nano.Config{Code: nano.MustAsm("add rbx, rbx"), UnrollCount: 10, LoopCount: 100, Events: brMiss}},
	}
}

// outcome renders an evaluation's result and error for comparison.
func outcome(res *nano.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		return "marshal: " + jerr.Error()
	}
	return string(b)
}

// TestResetMatchesFresh is the proof behind machine pooling: for every
// uarch model in both modes, resetSequence run on one machine, reset
// before each config, produces results and errors JSON-identical to
// running each config on a freshly built machine with the same seed.
func TestResetMatchesFresh(t *testing.T) {
	ctx := context.Background()
	seq := resetSequence()
	for _, cpu := range append(uarch.Table1(), uarch.Zen()) {
		for _, mode := range []machine.Mode{machine.Kernel, machine.User} {
			cpu, mode := cpu, mode
			t.Run(fmt.Sprintf("%s/%v", cpu.Name, mode), func(t *testing.T) {
				t.Parallel()
				var reused *machine.Machine
				for i, j := range seq {
					j.CPU, j.Mode = cpu.Name, mode
					seed := DeriveSeed(7, i)
					fresh, err := buildRunner(cpu, j, seed)
					if err != nil {
						t.Fatal(err)
					}
					want := outcome(fresh.RunContext(ctx, j.Cfg))
					var r *nano.Runner
					if reused == nil {
						r, err = buildRunner(cpu, j, seed)
					} else {
						r, err = resetRunner(reused, j, seed)
					}
					if err != nil {
						t.Fatal(err)
					}
					reused = r.M
					if got := outcome(r.RunContext(ctx, j.Cfg)); got != want {
						t.Errorf("config %d: reset machine\n%s\nfresh machine\n%s", i, got, want)
					}
				}
			})
		}
	}
}

// TestPoolSharedAcrossConcurrentBatches runs the executor calls behind
// Session.RunBatch (RunContext) and Session.StreamSharded (StreamContext
// on three workers) for two CPU models from several goroutines at once,
// all drawing on the shared machine pools, and requires every result to
// equal a serial run on fresh machines. Run it under -race.
func TestPoolSharedAcrossConcurrentBatches(t *testing.T) {
	const root = 11
	var jobs []Job
	for _, cpu := range []string{"Skylake", "Haswell"} {
		for i, j := range testJobs(8) {
			// Distinct unroll counts keep every job its own evaluation,
			// so each seed derives from the job's own index.
			j.CPU, j.Cfg.UnrollCount = cpu, 20+i
			jobs = append(jobs, j)
		}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		cpu, err := uarch.ByName(j.CPU)
		if err != nil {
			t.Fatal(err)
		}
		r, err := buildRunner(cpu, j, DeriveSeed(root, i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outcome(r.RunContext(context.Background(), j.Cfg))
	}
	check := func(how string, i int, got string) {
		if got != want[i] {
			t.Errorf("%s: job %d differs from the fresh-machine run:\n%s\nvs\n%s", how, i, got, want[i])
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := New(Options{Workers: 2, RootSeed: root}).RunContext(context.Background(), jobs)
			if err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			for i := range jobs {
				check("batch", i, outcome(res[i], nil))
			}
		}()
		go func() {
			defer wg.Done()
			ex := New(Options{Workers: 3, RootSeed: root})
			for it := range ex.StreamContext(context.Background(), jobs) {
				check("stream", it.Index, outcome(it.Result, it.Err))
			}
		}()
	}
	wg.Wait()
}

// TestLendReleaseTwicePoolsOnce: releasing a lent runner a second time
// does nothing, so its machine enters the pool once and two runners lent
// after it never share a machine. (The Zen model keeps other tests' pool
// traffic out of the way.)
func TestLendReleaseTwicePoolsOnce(t *testing.T) {
	j := Job{CPU: uarch.Zen().Name, Mode: machine.Kernel}
	_, release, err := Lend(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
	a, releaseA, err := Lend(j, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseA()
	b, releaseB, err := Lend(j, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseB()
	if a.M == b.M {
		t.Fatal("a machine released twice was lent to two runners at once")
	}
}
