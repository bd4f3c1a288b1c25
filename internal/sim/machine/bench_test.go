package machine

import (
	"fmt"
	"strings"
	"testing"

	"nanobench/internal/x86"
)

// benchMachine builds a kernel-mode machine with the code and data regions
// mapped and a realistic counter configuration: the three fixed counters
// plus all four programmable counters enabled, as every nanoBench
// measurement run has them.
func benchMachine(b *testing.B) *Machine {
	b.Helper()
	m, err := New(testSpec())
	if err != nil {
		b.Fatal(err)
	}
	m.SetMode(Kernel)
	if err := m.Mem.Map(testCodeBase, 0x200000, 1<<20); err != nil {
		b.Fatal(err)
	}
	if err := m.Mem.Map(testDataBase, 0x400000, 4<<20); err != nil {
		b.Fatal(err)
	}
	m.Hier.Prefetcher.Enabled = false
	// Program the port-usage counters 0..3 and enable everything, like the
	// runner's programCounters does before a measurement series.
	for i, sel := range []uint64{0xA1 | 0x01<<8, 0xA1 | 0x02<<8, 0xA1 | 0x04<<8, 0xA1 | 0x08<<8} {
		m.WriteMSR(MSRPerfEvtSel0+uint32(i), sel|PerfEvtSelEN)
	}
	m.WriteMSR(MSRFixedCtrCtrl, 0x333)
	m.WriteMSR(MSRPerfGlobalCtl, 0x7<<32|0xF)
	return m
}

// benchWorkloads are the two shapes of the loop-vs-unroll experiment
// (Section III-F): the same ALU body executed from a dec/jnz loop and as a
// straight unrolled stream.
func benchWorkloads() []struct{ name, asm string } {
	body := "add rax, rbx\nadd rcx, rdx\nxor r8, r9\ninc r10\n"
	var unrolled strings.Builder
	for i := 0; i < 256; i++ {
		unrolled.WriteString(body)
	}
	unrolled.WriteString("ret")
	loop := fmt.Sprintf(`
		mov r15, 256
	loop_start:
		%s
		dec r15
		jnz loop_start
		ret`, body)
	return []struct{ name, asm string }{
		{"loop", loop},
		{"unroll", unrolled.String()},
	}
}

// BenchmarkStepThroughput measures the simulator's per-instruction cost on
// the loop-vs-unroll workload. The ns/instr and simulated-MIPS metrics are
// the repo's headline engine-performance numbers (see README, "Simulator
// architecture & performance").
func BenchmarkStepThroughput(b *testing.B) {
	for _, w := range benchWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			benchRunWorkload(b, w.asm, EngineTrace)
		})
	}
}

// BenchmarkEngineThroughput measures the loop workload under each of the
// two execution tiers, so the per-tier cost of trace mode's block
// dispatch and schedule replay is visible (and gated) separately from the
// headline number.
func BenchmarkEngineThroughput(b *testing.B) {
	loop := benchWorkloads()[0]
	for _, e := range []Engine{EngineStep, EngineTrace} {
		b.Run(e.String(), func(b *testing.B) {
			benchRunWorkload(b, loop.asm, e)
		})
	}
}

func benchRunWorkload(b *testing.B, asm string, e Engine) {
	b.Helper()
	m := benchMachine(b)
	m.SetEngine(e)
	code := x86.MustAssemble(asm)
	if err := m.WriteCode(testCodeBase, code); err != nil {
		b.Fatal(err)
	}
	// One warm-up run so branch predictors and caches settle.
	if _, err := m.Run(testCodeBase); err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PMU.ResetAll(m.Cycle())
		res, err := m.Run(testCodeBase)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.StopTimer()
	if instrs > 0 {
		ns := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(ns/float64(instrs), "ns/instr")
		b.ReportMetric(float64(instrs)*1000/ns, "simulated-MIPS")
	}
}
