package sched

import (
	"runtime"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// newMachineSink keeps BenchmarkNewMachine's builds observable.
var newMachineSink *nano.Runner

// BenchmarkNewMachine measures the construction layer every evaluation
// pays before it simulates anything: one fresh machine plus nano runner
// per iteration, built by freshRunner exactly as evaluate builds them, for
// every uarch model.
func BenchmarkNewMachine(b *testing.B) {
	for _, cpu := range append(uarch.Table1(), uarch.Zen()) {
		j := Job{CPU: cpu.Name, Mode: machine.Kernel}
		b.Run(cpu.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := freshRunner(j, DeriveSeed(1, i))
				if err != nil {
					b.Fatal(err)
				}
				newMachineSink = r
			}
		})
	}
}

// newMachineBudget bounds the bytes a fresh Skylake machine plus runner
// allocates: construction must cost what an evaluation touches, not what
// the model can hold. The sparse page table and frame store and the lazily
// initialized cache sets keep it near 1 MiB (mostly cache-tag and policy
// arrays); a capacity-sized table — a dense 2 GB page table is 2 MiB on
// its own — breaks the budget.
const newMachineBudget = 3 << 19 // 1.5 MiB

// TestNewMachineFootprint pins the construction cost in allocated bytes,
// which, unlike time, repeat exactly from run to run. The minimum over a
// few builds discards allocations by stray goroutines of earlier tests.
func TestNewMachineFootprint(t *testing.T) {
	j := Job{CPU: "Skylake", Mode: machine.Kernel}
	build := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := freshRunner(j, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(r)
		return after.TotalAlloc - before.TotalAlloc
	}
	got := build()
	for i := 0; i < 3; i++ {
		got = min(got, build())
	}
	t.Logf("fresh Skylake machine + runner: %d bytes allocated", got)
	if got > newMachineBudget {
		t.Fatalf("fresh Skylake machine + runner allocates %d bytes, budget %d", got, newMachineBudget)
	}
}
