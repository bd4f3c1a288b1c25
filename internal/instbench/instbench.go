// Package instbench implements case study I (Section V): automatic
// generation and evaluation of microbenchmarks that measure the latency,
// throughput, and port usage of instruction variants, in the style of
// uops.info. The generated benchmarks run through nanoBench; the recovered
// characteristics can be compared against the simulator's ground-truth
// instruction table in internal/x86.
package instbench

import (
	"context"
	"fmt"
	"strings"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sched"
	"nanobench/internal/sim/machine"
	"nanobench/internal/x86"
)

// Form describes the operand shape of an instruction variant.
type Form string

// Operand forms.
const (
	FormR    Form = "r64"       // unary register
	FormM    Form = "m64"       // unary memory
	FormRR   Form = "r64, r64"  // register, register
	FormRI   Form = "r64, i32"  // register, immediate
	FormRM   Form = "r64, m64"  // register, memory (load)
	FormMR   Form = "m64, r64"  // memory, register (store or RMW)
	FormRCL  Form = "r64, CL"   // shift by CL
	FormLoad Form = "load"      // pointer-chasing load
	FormXX   Form = "xmm, xmm"  // vector register pair
	FormXM   Form = "xmm, m128" // vector load operand
	FormXR   Form = "xmm, r64"  // MOVQ xmm, r64
	FormRX   Form = "r64, xmm"  // MOVQ r64, xmm
	FormNone Form = ""          // no operands
)

// Variant is one instruction variant to characterize.
type Variant struct {
	Op   x86.Op
	Form Form
}

// Name renders the variant like "ADD (r64, r64)".
func (v Variant) Name() string {
	if v.Form == FormNone {
		return v.Op.String()
	}
	return fmt.Sprintf("%s (%s)", v.Op, v.Form)
}

// Measurement is the characterization of one variant.
type Measurement struct {
	Variant Variant
	// Latency is the dependency-chain latency in cycles, or -1 when the
	// variant has no measurable self-chain (e.g. MOV r64, imm).
	Latency float64
	// Throughput is the reciprocal throughput (cycles per instruction
	// with independent instances).
	Throughput float64
	// Ports holds per-port µop fractions per instruction.
	Ports [x86.NumPorts]float64
	// Uops is the measured number of issued µops per instruction.
	Uops float64
}

// PortSet returns the mask of ports with a dispatch fraction above 2%.
func (m Measurement) PortSet() x86.PortMask {
	var mask x86.PortMask
	for p, f := range m.Ports {
		if f > 0.02 {
			mask |= 1 << p
		}
	}
	return mask
}

// PortString renders port usage like "1*p0156" (total µops across the
// used ports, in the uops.info style).
func (m Measurement) PortString() string {
	mask := m.PortSet()
	if mask == 0 {
		return "-"
	}
	total := 0.0
	ports := ""
	for p := 0; p < x86.NumPorts; p++ {
		if mask&(1<<p) != 0 {
			total += m.Ports[p]
			ports += fmt.Sprintf("%d", p)
		}
	}
	return fmt.Sprintf("%.2g*p%s", total, ports)
}

// Variants returns the instruction variants the sweep characterizes.
func Variants() []Variant {
	var out []Variant
	add := func(op x86.Op, forms ...Form) {
		for _, f := range forms {
			out = append(out, Variant{op, f})
		}
	}
	// Integer ALU. (TEST has no r64,m64 form in x86.)
	for _, op := range []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP} {
		add(op, FormRR, FormRI, FormRM, FormMR)
	}
	add(x86.TEST, FormRR, FormRI, FormMR)
	for _, op := range []x86.Op{x86.INC, x86.DEC, x86.NEG, x86.NOT} {
		add(op, FormR, FormM)
	}
	for _, op := range []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR} {
		add(op, FormRI, FormRCL)
	}
	add(x86.IMUL, FormRR, FormRM)
	add(x86.MUL, FormR)
	add(x86.DIV, FormR)
	for _, op := range []x86.Op{x86.POPCNT, x86.BSF, x86.BSR} {
		add(op, FormRR, FormRM)
	}
	add(x86.BSWAP, FormR)
	add(x86.LEA, FormRM) // addresses, not loads; generator special-cases it
	// Moves.
	add(x86.MOV, FormRR, FormRI, FormLoad, FormMR)
	add(x86.XCHG, FormRR)
	add(x86.PUSH, FormR)
	add(x86.POP, FormR)
	add(x86.NOP, FormNone)
	// Vector.
	for _, op := range []x86.Op{x86.MOVAPS, x86.ADDPS, x86.MULPS, x86.DIVPS, x86.SQRTPS,
		x86.ADDPD, x86.MULPD, x86.DIVPD, x86.ADDSD, x86.MULSD, x86.DIVSD, x86.SQRTSD,
		x86.PADDQ, x86.PAND, x86.PXOR} {
		add(op, FormXX, FormXM)
	}
	add(x86.MOVQ, FormXR, FormRX)
	return out
}

// latencyAsm builds a self-dependent chain for the variant, or "" when the
// variant has no measurable latency chain.
func latencyAsm(v Variant) string {
	op := v.Op.String()
	switch v.Form {
	case FormR:
		return op + " rbx"
	case FormM:
		return op + " qword ptr [r14]" // chains through memory
	case FormRR:
		switch v.Op {
		case x86.CMP, x86.TEST:
			return "" // no destination write; no register chain
		case x86.BSF, x86.BSR:
			// BSF/BSR leave the destination unchanged for a zero source;
			// an OR keeps the chained value nonzero (its 1-cycle latency
			// is subtracted via chainOverhead).
			return "or rbx, 2\n" + op + " rbx, rbx"
		}
		return op + " rbx, rbx"
	case FormRI:
		if v.Op == x86.MOV || v.Op == x86.CMP || v.Op == x86.TEST {
			return "" // no input dependency on the destination
		}
		return op + " rbx, 1"
	case FormRCL:
		return op + " rbx, cl"
	case FormRM:
		if v.Op == x86.CMP || v.Op == x86.TEST {
			return ""
		}
		if v.Op == x86.LEA {
			// Chain through the address register.
			return "lea rbx, [rbx+8]"
		}
		return op + " rbx, [r14]" // chains through the destination register
	case FormMR:
		if v.Op == x86.MOV || v.Op == x86.CMP || v.Op == x86.TEST {
			return "" // plain store / no write: no chain
		}
		// Read-modify-write: chains through memory, i.e. the measured
		// latency includes the store-to-load forwarding round trip.
		return op + " qword ptr [r14], rbx"
	case FormLoad:
		return "mov r14, [r14]" // pointer chase
	case FormXX:
		return op + " xmm1, xmm1"
	case FormXR, FormRX:
		// Round trip through both MOVQ directions.
		return "movq xmm1, rbx\nmovq rbx, xmm1"
	case FormNone:
		return ""
	}
	return ""
}

// latencyChainLen is the number of chained instructions per iteration of
// the latency benchmark (round-trip forms chain two).
func latencyChainLen(v Variant) int {
	if v.Form == FormXR || v.Form == FormRX {
		return 2
	}
	return 1
}

// chainOverhead is the known latency of helper instructions inside the
// chain, subtracted from the measured per-iteration cycles.
func chainOverhead(v Variant) float64 {
	if v.Form == FormRR && (v.Op == x86.BSF || v.Op == x86.BSR) {
		return 1 // the OR feeding the chain
	}
	return 0
}

// throughputAsm builds independent instances (one unrolled block).
func throughputAsm(v Variant) string {
	op := v.Op.String()
	regs := []string{"r8", "r9", "r10", "r11"}
	xregs := []string{"xmm2", "xmm3", "xmm4", "xmm5"}
	var lines []string
	for i := 0; i < 4; i++ {
		r := regs[i]
		x := xregs[i]
		switch v.Form {
		case FormR:
			lines = append(lines, fmt.Sprintf("%s %s", op, r))
		case FormM:
			lines = append(lines, fmt.Sprintf("%s qword ptr [r14+%d]", op, 8*i))
		case FormRR:
			if v.Op == x86.XCHG {
				lines = append(lines, fmt.Sprintf("%s %s, %s", op, r, r))
				continue
			}
			lines = append(lines, fmt.Sprintf("%s %s, rbp", op, r))
		case FormRI:
			lines = append(lines, fmt.Sprintf("%s %s, 7", op, r))
		case FormRCL:
			lines = append(lines, fmt.Sprintf("%s %s, cl", op, r))
		case FormRM:
			lines = append(lines, fmt.Sprintf("%s %s, [r14+%d]", op, r, 8*i))
		case FormMR:
			lines = append(lines, fmt.Sprintf("%s [r14+%d], rbp", op, 8*i))
		case FormLoad:
			lines = append(lines, fmt.Sprintf("mov %s, [r14+%d]", r, 8*i))
		case FormXX:
			lines = append(lines, fmt.Sprintf("%s %s, xmm0", op, x))
		case FormXM:
			lines = append(lines, fmt.Sprintf("%s %s, [r14+%d]", op, x, 16*i))
		case FormXR:
			lines = append(lines, fmt.Sprintf("movq %s, rbp", x))
		case FormRX:
			lines = append(lines, fmt.Sprintf("movq %s, xmm0", r))
		case FormNone:
			lines = append(lines, op)
		}
	}
	return strings.Join(lines, "\n")
}

// initAsm prepares registers and memory for a variant (valid pointer in
// R14, a self-pointing chase location, sane operand values).
func initAsm(v Variant) string {
	init := `
		mov [r14], r14
		mov rbx, 1
		mov rbp, 1
		mov rcx, 1
		mov rax, 1
		mov rdx, 0
	`
	if v.Op == x86.DIV || v.Op == x86.MUL {
		// Dividend RDX:RAX = 0:8, every divisor register = 1: quotients
		// stay representable forever.
		init += "\nmov rax, 8\nmov rbx, 1\nmov r8, 1\nmov r9, 1\nmov r10, 1\nmov r11, 1\n"
	}
	return init
}

// portEvents builds the per-port counter configuration.
func portEvents() []perfcfg.EventSpec {
	var evs []perfcfg.EventSpec
	for p := 0; p < x86.NumPorts; p++ {
		evs = append(evs, perfcfg.EventSpec{
			Kind: perfcfg.Core, EvtSel: 0xA1, Umask: 1 << p,
			Name: fmt.Sprintf("PORT_%d", p),
		})
	}
	evs = append(evs, perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0x0E, Umask: 0x01, Name: "UOPS"})
	return evs
}

// LatencyConfig builds the nanoBench configuration measuring the
// variant's dependency-chain latency. ok is false when the variant has no
// measurable self-chain (e.g. MOV r64, imm).
func LatencyConfig(v Variant) (cfg nano.Config, ok bool, err error) {
	asm := latencyAsm(v)
	if asm == "" {
		return nano.Config{}, false, nil
	}
	code, err := nano.Asm(asm)
	if err != nil {
		return nano.Config{}, false, fmt.Errorf("instbench: %s latency: %w", v.Name(), err)
	}
	return nano.Config{
		Code:        code,
		CodeInit:    nano.MustAsm(initAsm(v)),
		UnrollCount: 50,
		WarmUpCount: 1,
		Aggregate:   nano.Min,
	}, true, nil
}

// ThroughputConfig builds the nanoBench configuration measuring the
// variant's reciprocal throughput and port usage with independent
// instances.
func ThroughputConfig(v Variant) (nano.Config, error) {
	code, err := nano.Asm(throughputAsm(v))
	if err != nil {
		return nano.Config{}, fmt.Errorf("instbench: %s throughput: %w", v.Name(), err)
	}
	return nano.Config{
		Code:        code,
		CodeInit:    nano.MustAsm(initAsm(v)),
		UnrollCount: 25, // ×4 instances = 100 instructions
		WarmUpCount: 1,
		Aggregate:   nano.Min,
		Events:      portEvents(),
	}, nil
}

// measurementFrom assembles a Measurement from the two evaluations' raw
// results (latRes may be nil for chainless variants).
func measurementFrom(v Variant, latRes, tpRes *nano.Result) Measurement {
	m := Measurement{Variant: v, Latency: -1}
	if latRes != nil {
		m.Latency = (latRes.MustGet("Core cycles") - chainOverhead(v)) / float64(latencyChainLen(v))
	}
	// Per-block values are per 4 instructions.
	m.Throughput = tpRes.MustGet("Core cycles") / 4
	m.Uops = tpRes.MustGet("UOPS") / 4
	for p := 0; p < x86.NumPorts; p++ {
		m.Ports[p] = tpRes.MustGet(fmt.Sprintf("PORT_%d", p)) / 4
	}
	return m
}

// Measure characterizes one variant on the runner's machine.
func Measure(r *nano.Runner, v Variant) (Measurement, error) {
	var latRes *nano.Result
	latCfg, hasLat, err := LatencyConfig(v)
	if err != nil {
		return Measurement{Variant: v, Latency: -1}, err
	}
	if hasLat {
		latRes, err = r.Run(latCfg)
		if err != nil {
			return Measurement{Variant: v, Latency: -1}, fmt.Errorf("instbench: %s latency: %w", v.Name(), err)
		}
	}
	tpCfg, err := ThroughputConfig(v)
	if err != nil {
		return Measurement{Variant: v, Latency: -1}, err
	}
	tpRes, err := r.Run(tpCfg)
	if err != nil {
		return Measurement{Variant: v, Latency: -1}, fmt.Errorf("instbench: %s throughput: %w", v.Name(), err)
	}
	return measurementFrom(v, latRes, tpRes), nil
}

// MeasureAll characterizes every variant serially on one shared machine.
func MeasureAll(r *nano.Runner) ([]Measurement, error) {
	var out []Measurement
	for _, v := range Variants() {
		meas, err := Measure(r, v)
		if err != nil {
			return out, err
		}
		out = append(out, meas)
	}
	return out, nil
}

// Sweep characterizes every variant by fanning the per-variant latency and
// throughput evaluations out through the batch scheduler, each on an
// independently-seeded machine in the state of a fresh build. Results are
// deterministic for any worker count (see the sched package
// documentation).
func Sweep(cpuName string, mode machine.Mode, opts sched.Options) ([]Measurement, error) {
	return SweepVariants(cpuName, mode, Variants(), opts)
}

// SweepVariants is Sweep over a caller-chosen variant subset.
func SweepVariants(cpuName string, mode machine.Mode, variants []Variant, opts sched.Options) ([]Measurement, error) {
	return SweepVariantsContext(context.Background(), cpuName, mode, variants, opts)
}

// SweepVariantsContext is SweepVariants bounded by a context: cancelling
// it aborts the sweep between evaluations and returns the context's
// error (a long instruction-table characterization is the tool's most
// cancellation-worthy workload).
func SweepVariantsContext(ctx context.Context, cpuName string, mode machine.Mode, variants []Variant, opts sched.Options) ([]Measurement, error) {
	var jobs []sched.Job
	latIdx := make([]int, len(variants))
	tpIdx := make([]int, len(variants))
	for i, v := range variants {
		latCfg, hasLat, err := LatencyConfig(v)
		if err != nil {
			return nil, err
		}
		latIdx[i] = -1
		if hasLat {
			latIdx[i] = len(jobs)
			jobs = append(jobs, sched.Job{CPU: cpuName, Mode: mode, Cfg: latCfg})
		}
		tpCfg, err := ThroughputConfig(v)
		if err != nil {
			return nil, err
		}
		tpIdx[i] = len(jobs)
		jobs = append(jobs, sched.Job{CPU: cpuName, Mode: mode, Cfg: tpCfg})
	}
	results, err := sched.New(opts).RunContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	ms := make([]Measurement, len(variants))
	for i, v := range variants {
		var latRes *nano.Result
		if latIdx[i] >= 0 {
			latRes = results[latIdx[i]]
		}
		ms[i] = measurementFrom(v, latRes, results[tpIdx[i]])
	}
	return ms, nil
}

// Expected ground truth, derived from the simulator's instruction table.

// ExpectedLatency returns the ground-truth register-chain latency for
// variants with a register self-chain, or -1.
func ExpectedLatency(v Variant) float64 {
	spec := x86.Spec(v.Op)
	switch v.Form {
	case FormRR, FormRI, FormRCL, FormR:
		if latencyAsm(v) == "" {
			return -1
		}
		maxLat := 0
		for _, u := range spec.Uops {
			if u.Latency > maxLat {
				maxLat = u.Latency
			}
		}
		return float64(maxLat)
	case FormXX:
		maxLat := 0
		for _, u := range spec.Uops {
			if u.Latency > maxLat {
				maxLat = u.Latency
			}
		}
		return float64(maxLat)
	}
	return -1
}

// ExpectedPorts returns the ground-truth port mask of the variant's
// compute µops (plus load/store ports for memory forms).
func ExpectedPorts(v Variant) x86.PortMask {
	spec := x86.Spec(v.Op)
	var mask x86.PortMask
	for _, u := range spec.Uops {
		mask |= u.Ports
	}
	switch v.Form {
	case FormRM, FormXM, FormLoad:
		mask |= x86.PortsLoad
	case FormM:
		// Unary memory forms are read-modify-write.
		mask |= x86.PortsLoad | x86.PortsSTA | x86.PortsSTD
	case FormMR:
		switch v.Op {
		case x86.MOV:
			mask = x86.PortsSTA | x86.PortsSTD // plain store: no load, no compute
		case x86.CMP, x86.TEST:
			mask |= x86.PortsLoad // compare against memory: load only
		default:
			mask |= x86.PortsLoad | x86.PortsSTA | x86.PortsSTD
		}
	}
	if v.Op == x86.PUSH {
		mask |= x86.PortsSTA | x86.PortsSTD
	}
	if v.Op == x86.POP {
		mask |= x86.PortsLoad
	}
	return mask
}

// FormatTable renders measurements as an aligned text table.
func FormatTable(ms []Measurement) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %8s %6s  %s\n", "Variant", "Lat", "TP", "Uops", "Ports")
	for _, m := range ms {
		lat := "-"
		if m.Latency >= 0 {
			lat = fmt.Sprintf("%.2f", m.Latency)
		}
		fmt.Fprintf(&sb, "%-24s %8s %8.2f %6.2f  %s\n",
			m.Variant.Name(), lat, m.Throughput, m.Uops, m.PortString())
	}
	return sb.String()
}
