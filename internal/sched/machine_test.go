package sched

import (
	"context"
	"runtime"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// newMachineSink keeps BenchmarkNewMachine's builds observable.
var newMachineSink *nano.Runner

// usedMachine builds a machine of the model and runs a memory-walking
// loop on it, so caches, frames, decoded programs and trace blocks all
// hold state a reset must drop.
func usedMachine(tb testing.TB, cpu uarch.CPU) *machine.Machine {
	tb.Helper()
	j := Job{CPU: cpu.Name, Mode: machine.Kernel, Cfg: nano.Config{
		Code:        nano.MustAsm("mov rax, [r14]\nadd r14, 64"),
		UnrollCount: 64,
		LoopCount:   16,
	}}
	r, err := buildRunner(cpu, j, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.RunContext(context.Background(), j.Cfg); err != nil {
		tb.Fatal(err)
	}
	return r.M
}

// BenchmarkNewMachine measures the construction layer every evaluation
// pays before it simulates anything, for every uarch model: "build" is a
// new machine plus nano runner, the cold path evaluate takes when its
// pool is empty; "reset" is Reset plus runner on a used machine, the
// pooled path.
func BenchmarkNewMachine(b *testing.B) {
	for _, cpu := range append(uarch.Table1(), uarch.Zen()) {
		cpu := cpu
		j := Job{CPU: cpu.Name, Mode: machine.Kernel}
		b.Run(cpu.Name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := buildRunner(cpu, j, DeriveSeed(1, i))
				if err != nil {
					b.Fatal(err)
				}
				newMachineSink = r
			}
		})
		b.Run(cpu.Name+"/reset", func(b *testing.B) {
			m := usedMachine(b, cpu)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := resetRunner(m, j, DeriveSeed(1, i))
				if err != nil {
					b.Fatal(err)
				}
				newMachineSink = r
			}
		})
	}
}

// allocated returns the bytes f allocates, as the minimum over a few
// calls: the minimum discards allocations by stray goroutines of earlier
// tests. Allocated bytes, unlike time, repeat exactly from run to run.
func allocated(t *testing.T, f func()) uint64 {
	t.Helper()
	got := ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}

// newMachineBudget bounds the bytes a fresh Skylake machine plus runner
// allocates: construction must cost what an evaluation touches, not what
// the model can hold. The sparse page table and frame store and the lazily
// initialized cache sets keep it near 1 MiB (mostly cache-tag and policy
// arrays); a capacity-sized table — a dense 2 GB page table is 2 MiB on
// its own — breaks the budget.
const newMachineBudget = 3 << 19 // 1.5 MiB

// TestNewMachineFootprint pins the cold construction cost in allocated
// bytes. It calls buildRunner directly: other tests in this package fill
// the machine pool, so going through evaluate could measure a reset.
func TestNewMachineFootprint(t *testing.T) {
	cpu, err := uarch.ByName("Skylake")
	if err != nil {
		t.Fatal(err)
	}
	j := Job{CPU: cpu.Name, Mode: machine.Kernel}
	got := allocated(t, func() {
		r, err := buildRunner(cpu, j, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(r)
	})
	t.Logf("fresh Skylake machine + runner: %d bytes allocated", got)
	if got > newMachineBudget {
		t.Fatalf("fresh Skylake machine + runner allocates %d bytes, budget %d", got, newMachineBudget)
	}
}

// resetBudget bounds the bytes Reset plus runner allocates on a used
// Skylake machine: a reset reinitializes the capacity-sized arrays in
// place, so only what the runner maps is new (page-table leaves, the PMU
// and the C-Boxes, about 14 KiB). A reset that reallocates capacity-sized
// state, such as the cache-tag arrays, breaks the budget.
const resetBudget = 64 << 10

// TestResetFootprint pins the pooled path's cost in allocated bytes.
func TestResetFootprint(t *testing.T) {
	cpu, err := uarch.ByName("Skylake")
	if err != nil {
		t.Fatal(err)
	}
	m := usedMachine(t, cpu)
	j := Job{CPU: cpu.Name, Mode: machine.Kernel}
	got := allocated(t, func() {
		r, err := resetRunner(m, j, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(r)
	})
	t.Logf("Skylake Reset + runner: %d bytes allocated", got)
	if got > resetBudget {
		t.Fatalf("Skylake Reset + runner allocates %d bytes, budget %d", got, resetBudget)
	}
}

// evaluateJobs are fixed Skylake kernel-mode configs in the shapes
// instbench builds for the §V sweep (which this package cannot import):
// latency configs chain one instruction through its own destination,
// unrolled 50 times; throughput configs run four independent instances,
// unrolled 25 times, and count per-port µops.
func evaluateJobs() []Job {
	const init = "mov [r14], r14\nmov rbx, 1\nmov rbp, 1\nmov rcx, 1\nmov rax, 1\nmov rdx, 0"
	var ports []perfcfg.EventSpec
	for p := 0; p < 8; p++ {
		ports = append(ports, perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xA1, Umask: 1 << p})
	}
	ports = append(ports, perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0x0E, Umask: 0x01, Name: "UOPS"})
	latency := []string{"add rbx, rbx", "imul rbx, rbx", "shl rbx, cl", "add rbx, [r14]", "add qword ptr [r14], rbx", "mov r14, [r14]"}
	throughput := []string{
		"add r8, rbp\nadd r9, rbp\nadd r10, rbp\nadd r11, rbp",
		"imul r8, rbp\nimul r9, rbp\nimul r10, rbp\nimul r11, rbp",
		"add r8, [r14]\nadd r9, [r14+8]\nadd r10, [r14+16]\nadd r11, [r14+24]",
		"mov [r14], r8\nmov [r14+8], r9\nmov [r14+16], r10\nmov [r14+24], r11",
	}
	var jobs []Job
	for _, asm := range latency {
		jobs = append(jobs, Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{
			Code: nano.MustAsm(asm), CodeInit: nano.MustAsm(init),
			UnrollCount: 50, WarmUpCount: 1, Aggregate: nano.Min,
		}})
	}
	for _, asm := range throughput {
		jobs = append(jobs, Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{
			Code: nano.MustAsm(asm), CodeInit: nano.MustAsm(init),
			UnrollCount: 25, WarmUpCount: 1, Aggregate: nano.Min, Events: ports,
		}})
	}
	return jobs
}

// BenchmarkEvaluate measures the evaluation path of a sweep end to end
// inside sched — machine from the pool, reset, runner, simulation — on
// one worker and without a result cache, so every iteration evaluates
// every config. `make profile` profiles it.
func BenchmarkEvaluate(b *testing.B) {
	jobs := evaluateJobs()
	ex := New(Options{Workers: 1, RootSeed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/config")
}
