// The external test package breaks the would-be cycle: the experiments
// package itself drives the nanobench facade.
package nanobench_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (the E1–E11 experiment functions of internal/experiments).
// Each benchmark runs the corresponding experiment and reports its key
// quantities as custom metrics, so `go test -bench=. -benchmem`
// reproduces the full evaluation:
//
//	BenchmarkExampleL1Latency        — §III-A example (E1)
//	BenchmarkNanoBenchKernelRuntime  — §III-K kernel timing (E2)
//	BenchmarkNanoBenchUserRuntime    — §III-K user timing (E2)
//	BenchmarkTableIPolicies          — Table I (E3, quick subset)
//	BenchmarkFigure1AgeGraph         — Figure 1 (E4, reduced resolution)
//	BenchmarkSerializationCPUIDvsLFENCE — §IV-A1 (E5)
//	BenchmarkInstructionTable        — §V sweep (E6, subset)
//	BenchmarkLoopVsUnroll            — §III-F (E7)
//	BenchmarkNoMemMode               — §III-I (E8)
//	BenchmarkKernelVsUserAccuracy    — §III-D (E9)
//	BenchmarkContiguousAlloc         — §IV-D (E10)
//	BenchmarkSetDueling              — §VI-C3 (E11, quick subset)
//	BenchmarkPolicyCampaign          — §VI campaign job (sharded inference)

import (
	"context"
	"io"
	"testing"

	"nanobench/internal/experiments"
)

func BenchmarkExampleL1Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExampleL1Latency(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MustGet("Core cycles"), "L1-latency-cycles")
			b.ReportMetric(res.MustGet("Reference cycles"), "ref-cycles")
		}
	}
}

func BenchmarkNanoBenchKernelRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kernel, _, err := experiments.NanoBenchTiming(io.Discard, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(kernel.Seconds()*1000, "kernel-ms")
		}
	}
}

func BenchmarkNanoBenchUserRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, user, err := experiments.NanoBenchTiming(io.Discard, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(user.Seconds()*1000, "user-ms")
		}
	}
}

func BenchmarkTableIPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ok := 0
			for _, r := range rows {
				if r.L1OK && r.L2OK && r.L3OK {
					ok++
				}
			}
			b.ReportMetric(float64(ok), "CPUs-correct")
			b.ReportMetric(float64(len(rows)), "CPUs-tested")
		}
	}
}

func BenchmarkFigure1AgeGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.Figure1(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// The signature of the probabilistic policy: B0's survival
			// fraction right after one batch of fresh blocks (paper:
			// ~1/16 of copies survive).
			if frac, ok := g.SurvivalAt(0, 16); ok {
				b.ReportMetric(frac, "B0-survival-frac")
			}
		}
	}
}

func BenchmarkSerializationCPUIDvsLFENCE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cpuid, lfence, err := experiments.Serialization(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cpuid, "CPUID-spread-cycles")
			b.ReportMetric(lfence, "LFENCE-spread-cycles")
		}
	}
}

func BenchmarkInstructionTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total, latOK, portOK, err := experiments.InstructionTable(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(total), "variants")
			b.ReportMetric(float64(latOK), "latencies-correct")
			b.ReportMetric(float64(portOK), "ports-correct")
		}
	}
}

func BenchmarkLoopVsUnroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.LoopVsUnroll(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(out["unroll=100, loop=0"], "unroll-cycles-per-instr")
			b.ReportMetric(out["unroll=1, loop=100"], "loop-cycles-per-instr")
		}
	}
}

func BenchmarkNoMemMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		memHits, noMemHits, err := experiments.NoMemAblation(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(memHits, "mem-mode-hits")
			b.ReportMetric(noMemHits, "nomem-mode-hits")
		}
	}
}

func BenchmarkKernelVsUserAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kernel, user, err := experiments.KernelVsUserAccuracy(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(kernel, "kernel-spread-cycles")
			b.ReportMetric(user, "user-spread-cycles")
		}
	}
}

func BenchmarkContiguousAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshOK, fragFail, rebootOK, err := experiments.ContiguousAlloc(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(freshOK), "fresh-ok")
			b.ReportMetric(boolMetric(fragFail), "frag-fails")
			b.ReportMetric(boolMetric(rebootOK), "reboot-recovers")
		}
	}
}

func BenchmarkSetDueling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.SetDueling(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			correct, total := 0, 0
			for _, r := range results {
				correct += r.Correct
				total += r.Total
			}
			b.ReportMetric(float64(correct), "sets-correct")
			b.ReportMetric(float64(total), "sets-tested")
		}
	}
}

// BenchmarkPolicyCampaign runs the campaign job's workload — sharded
// policy inference over two models at every cache level, plus the
// adaptive model's stochastic-leader age graph — end to end, the same
// code path the server's "campaign" job kind executes.
func BenchmarkPolicyCampaign(b *testing.B) {
	opt := experiments.CampaignOptions{
		CPUs:        []string{"IvyBridge", "Skylake"},
		AgeGraphs:   true,
		AgeMaxFresh: 32, AgeStep: 16, AgeTrials: 4,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.PolicyCampaign(context.Background(), opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ok := 0
			for _, c := range res.Cells {
				if c.OK {
					ok++
				}
			}
			b.ReportMetric(float64(ok), "cells-correct")
			b.ReportMetric(float64(len(res.Cells)), "cells-tested")
			b.ReportMetric(float64(len(res.AgeRows)), "age-rows")
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
