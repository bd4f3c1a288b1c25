// Port usage: measure which execution ports a handful of instructions
// dispatch to, the way case study I does for the full instruction table.
// The four benchmarks run as one session batch, in parallel, with
// deterministic results.
//
//	go run nanobench/examples/portusage
package main

import (
	"context"
	"fmt"
	"log"

	"nanobench"
)

func main() {
	s, err := nanobench.Open(
		nanobench.WithCPU("Skylake"),
		nanobench.WithSeed(7),
		nanobench.WithWarmUp(1),
	)
	if err != nil {
		log.Fatal(err)
	}

	events := nanobench.MustParseEvents(`
A1.01 PORT_0
A1.02 PORT_1
A1.04 PORT_2
A1.08 PORT_3
A1.10 PORT_4
A1.20 PORT_5
A1.40 PORT_6
A1.80 PORT_7`)

	benchmarks := []struct{ name, asm string }{
		{"4x ADD (ALU)", "add r8, 1\nadd r9, 1\nadd r10, 1\nadd r11, 1"},
		{"4x IMUL (multiplier)", "imul r8, rbp\nimul r9, rbp\nimul r10, rbp\nimul r11, rbp"},
		{"4x load", "mov r8, [r14]\nmov r9, [r14+8]\nmov r10, [r14+16]\nmov r11, [r14+24]"},
		{"4x store", "mov [r14], rbp\nmov [r14+8], rbp\nmov [r14+16], rbp\nmov [r14+24], rbp"},
	}
	cfgs := make([]nanobench.Config, len(benchmarks))
	for i, b := range benchmarks {
		cfgs[i] = nanobench.Config{
			Code:        nanobench.MustAsm(b.asm),
			UnrollCount: 25,
			Events:      events,
		}
	}

	results, err := s.RunBatch(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s", "benchmark")
	for p := 0; p < 8; p++ {
		fmt.Printf("  p%d  ", p)
	}
	fmt.Println()
	for i, b := range benchmarks {
		fmt.Printf("%-22s", b.name)
		for p := 0; p < 8; p++ {
			v, _ := results[i].Get(fmt.Sprintf("PORT_%d", p))
			fmt.Printf(" %.2f", v/4) // per instruction
		}
		fmt.Println()
	}
}
