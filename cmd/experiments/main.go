// Command experiments regenerates the tables and figures of the nanoBench
// paper's evaluation: the E1–E11 experiments of the internal/experiments
// package, each printed under its E-numbered heading. That package drives
// the public Session API — its machines, sweeps, and caches go through
// nanobench.Open — so this binary doubles as an end-to-end exercise of
// the facade.
//
//	experiments -all          # everything (about 3 s on a 2-vCPU host)
//	experiments -table1       # Table I only
//	experiments -fig1 -quick  # a fast, low-resolution Figure 1
package main

import (
	"flag"
	"fmt"
	"os"

	"nanobench/internal/experiments"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		example = flag.Bool("example", false, "E1: Section III-A example output")
		timing  = flag.Bool("timing", false, "E2: nanoBench execution time")
		table1  = flag.Bool("table1", false, "E3: Table I replacement policies")
		fig1    = flag.Bool("fig1", false, "E4: Figure 1 age graph")
		serial  = flag.Bool("serialization", false, "E5: CPUID vs LFENCE")
		instr   = flag.Bool("instr", false, "E6: instruction characterization sweep")
		loopUn  = flag.Bool("loopunroll", false, "E7: loops vs unrolling")
		noMem   = flag.Bool("nomem", false, "E8: noMem mode ablation")
		accur   = flag.Bool("accuracy", false, "E9: kernel vs user accuracy")
		alloc   = flag.Bool("alloc", false, "E10: contiguous allocation")
		dueling = flag.Bool("dueling", false, "E11: set-dueling leader detection")
		quick   = flag.Bool("quick", false, "reduced parameters for the slow experiments")
		workers = flag.Int("workers", 0, "parallel simulated machines for the sweeps (0 = all cores)")
	)
	flag.Parse()
	experiments.Workers = *workers

	w := os.Stdout
	any := false
	step := func(enabled bool, f func() error) {
		if !*all && !enabled {
			return
		}
		any = true
		if err := f(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}

	step(*example, func() error { _, err := experiments.ExampleL1Latency(w); return err })
	step(*timing, func() error { _, _, err := experiments.NanoBenchTiming(w, nil); return err })
	step(*table1, func() error { _, err := experiments.Table1(w, *quick); return err })
	step(*fig1, func() error { _, err := experiments.Figure1(w, *quick); return err })
	step(*serial, func() error { _, _, err := experiments.Serialization(w); return err })
	step(*instr, func() error { _, _, _, err := experiments.InstructionTable(w, *quick); return err })
	step(*loopUn, func() error { _, err := experiments.LoopVsUnroll(w); return err })
	step(*noMem, func() error { _, _, err := experiments.NoMemAblation(w); return err })
	step(*accur, func() error { _, _, err := experiments.KernelVsUserAccuracy(w); return err })
	step(*alloc, func() error { _, _, _, err := experiments.ContiguousAlloc(w); return err })
	step(*dueling, func() error { _, err := experiments.SetDueling(w, *quick); return err })

	if !any {
		flag.Usage()
		os.Exit(2)
	}
}
