package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"nanobench/internal/x86"
)

// TestEngineDefaultIsTrace pins trace mode as the default engine: the
// zero-value Machine runs the trace tier, and SetEngine round-trips both
// tiers. The serialization counter values and golden experiment
// outputs elsewhere in the suite are therefore all produced — and pinned
// — under trace mode.
func TestEngineDefaultIsTrace(t *testing.T) {
	m := newTestMachine(t)
	if got := m.Engine(); got != EngineTrace {
		t.Fatalf("default engine = %v, want %v", got, EngineTrace)
	}
	for _, e := range []Engine{EngineStep, EngineTrace} {
		m.SetEngine(e)
		if got := m.Engine(); got != e {
			t.Fatalf("SetEngine(%v) round-trips to %v", e, got)
		}
	}
}

// TestTraceBlocksDroppedOnCodeWrite is the port-pick-cache invalidation
// regression test: trace blocks (and their recorded schedules) are built
// during Run, and any write into the code region — here a WriteData call
// — must discard them with the program before the next dispatch.
func TestTraceBlocksDroppedOnCodeWrite(t *testing.T) {
	m := newTestMachine(t)
	code := x86.MustAssemble(`
		mov r13, 8
	loop:
		add rax, 1
		add rbx, 2
		dec r13
		jnz loop
		ret`)
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("no trace blocks built by a trace-mode run")
	}

	// A data write outside the program leaves the blocks alone...
	if err := m.WriteData(testDataBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("data write outside the program dropped trace blocks")
	}
	// ...but one byte into the code region drops every block and schedule.
	if err := m.WriteData(testCodeBase, code[:1]); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) != 0 || len(m.prog.blockOf) != 0 {
		t.Fatalf("code write left %d trace blocks cached", len(m.prog.blocks))
	}
	if m.ProgramValid(testCodeBase, len(code)) {
		t.Fatal("code write did not drop the program")
	}
	// The next run executes through the slow decode path (no program, no
	// blocks); reinstalling the image rebuilds blocks from scratch.
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) != 0 {
		t.Fatal("trace blocks cached without an installed program")
	}
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("no trace blocks rebuilt after reinstall")
	}
}

// TestTraceSelfModifyingLoopMatchesStep runs a loop that patches the
// imm64 field of a MOV inside its own trace block: the store must drop
// the cached block mid-run, the patched semantics must take effect on the
// next iteration, and both engines must agree on the final state.
// This is the invalidation path a stale port-pick cache would break.
func TestTraceSelfModifyingLoopMatchesStep(t *testing.T) {
	var buf []byte
	emit := func(in x86.Instr) {
		out, err := x86.EncodeInstr(buf, in)
		if err != nil {
			t.Fatalf("encode %s: %v", in.String(), err)
		}
		buf = out
	}
	const patched = 0xDEAD
	emit(x86.I(x86.MOV, x86.RCX, x86.Imm(patched)))
	emit(x86.I(x86.MOV, x86.RBX, x86.Imm(0)))
	emit(x86.I(x86.MOV, x86.R13, x86.Imm(3)))
	loopStart := len(buf)
	// Patch slot: the imm64 of this MOV (2 bytes of REX.W+opcode, then 8
	// bytes of immediate) is overwritten by the store below.
	slotStart := len(buf)
	const initial = 1<<40 | 0x1111
	emit(x86.I(x86.MOV, x86.RAX, x86.Imm(initial)))
	if len(buf)-slotStart != 10 {
		t.Fatalf("patch slot encoded to %d bytes, want 10", len(buf)-slotStart)
	}
	emit(x86.I(x86.ADD, x86.RBX, x86.RAX))
	emit(x86.I(x86.MOV, x86.MemAt(testCodeBase+uint32(slotStart)+2), x86.RCX))
	emit(x86.I(x86.DEC, x86.R13))
	emit(x86.I(x86.JNZ, x86.Imm(int64(loopStart)-int64(len(buf)+6))))
	emit(x86.I(x86.RET))

	states := make(map[Engine]string)
	for _, e := range []Engine{EngineStep, EngineTrace} {
		m := benchmarkishMachine(t)
		m.SetEngine(e)
		if err := m.WriteCode(testCodeBase, buf); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(testCodeBase)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		// Iteration 1 adds the original immediate and patches the slot;
		// iterations 2 and 3 load and add the patched value.
		if got := m.Reg(x86.RAX); got != patched {
			t.Fatalf("%v: RAX = %#x, want patched %#x", e, got, uint64(patched))
		}
		if got, want := m.Reg(x86.RBX), uint64(initial+2*patched); got != want {
			t.Fatalf("%v: RBX = %#x, want %#x", e, got, want)
		}
		states[e] = machineState(t, m, res)
	}
	if states[EngineTrace] != states[EngineStep] {
		t.Fatalf("trace diverges from step:\nstep:\n%s\ntrace:\n%s",
			states[EngineStep], states[EngineTrace])
	}
}

// recycledProgram generates one program of the recycled-storage test: a
// loop of 20–39 iterations over a random run of fused register ops,
// optionally preceded by MOVs into some registers. Each program draws its
// ops from one family — immediate shifts (ports 0 and 6), multiplies and
// POPCNT (port 1), plain ALU ops (ports 0, 1, 5, 6) or shifts and
// multiplies together — sometimes with a record-only BSF, and its
// registers from a random subset, so consecutive programs give one block
// index blocks of different lengths, port sets and live-in sets.
func recycledProgram(t *testing.T, rng *rand.Rand) []byte {
	g := &progGen{t: t, rng: rng}
	if rng.Intn(2) == 0 {
		for _, r := range safeRegs {
			if rng.Intn(2) == 0 {
				g.emit(x86.I(x86.MOV, r, x86.Imm(rng.Int63n(1<<32))))
			}
		}
	}
	regs := append([]x86.Reg(nil), safeRegs...)
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	regs = regs[:1+rng.Intn(len(regs))]
	reg := func() x86.Reg { return regs[rng.Intn(len(regs))] }
	shift := func() x86.Instr {
		ops := []x86.Op{x86.SHL, x86.SHR, x86.ROL, x86.ROR}
		return x86.I(ops[rng.Intn(len(ops))], reg(), x86.Imm(int64(1+rng.Intn(31))))
	}
	mul := func() x86.Instr {
		ops := []x86.Op{x86.IMUL, x86.POPCNT}
		return x86.I(ops[rng.Intn(len(ops))], reg(), reg())
	}
	alu := func() x86.Instr {
		switch rng.Intn(4) {
		case 0:
			ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.ADC}
			return x86.I(ops[rng.Intn(len(ops))], reg(), reg())
		case 1:
			ops := []x86.Op{x86.ADD, x86.XOR, x86.CMP, x86.TEST}
			return x86.I(ops[rng.Intn(len(ops))], reg(), x86.Imm(int64(rng.Intn(1<<12))))
		case 2:
			ops := []x86.Op{x86.INC, x86.DEC, x86.NEG, x86.NOT}
			return x86.I(ops[rng.Intn(len(ops))], reg())
		default:
			return x86.I(x86.MOV, reg(), reg())
		}
	}
	families := [][]func() x86.Instr{{shift}, {mul}, {alu}, {shift, mul}}
	family := families[rng.Intn(len(families))]
	bsf := rng.Intn(4) == 0
	var body []x86.Instr
	for i, n := 0, 2+rng.Intn(24); i < n; i++ {
		if bsf && rng.Intn(8) == 0 {
			body = append(body, x86.I(x86.BSF, reg(), reg()))
			continue
		}
		body = append(body, family[rng.Intn(len(family))]())
	}
	loopProgram(g, body, 20+rng.Intn(20))
	return g.buf
}

// loopProgram appends a loop of iters iterations over body to the program:
// MOV R13 and a NOP, the body, then a NOP, DEC R13, JNZ and RET. The NOPs
// keep the loop counter's µops out of the body's trace blocks.
func loopProgram(g *progGen, body []x86.Instr, iters int) {
	g.emit(x86.I(x86.MOV, x86.R13, x86.Imm(int64(iters))))
	g.emit(x86.I(x86.NOP))
	loopStart := len(g.buf)
	for _, in := range body {
		g.emit(in)
	}
	g.emit(x86.I(x86.NOP))
	g.emit(x86.I(x86.DEC, x86.R13))
	g.emit(x86.I(x86.JNZ, x86.Imm(int64(loopStart)-int64(len(g.buf)+6))))
	g.emit(x86.I(x86.RET))
}

// TestRecycledTraceStorageLeaksNoSchedule runs a sequence of distinct
// programs on one trace-tier machine, whose blocks reuse the storage
// (steps, port and live-in sets, recorded slots) earlier programs left,
// and after each program compares registers, cycles and counters with a
// same-seed machine running the same sequence on the step tier. A reused
// block that kept its slot count or its slot predictor would serve, or
// index, a schedule recorded for another program.
func TestRecycledTraceStorageLeaksNoSchedule(t *testing.T) {
	trace, step := benchmarkishMachine(t), benchmarkishMachine(t)
	step.SetEngine(EngineStep)
	rng := rand.New(rand.NewSource(3))
	type shape struct {
		steps          int
		ports, liveIns string
	}
	var programs [][]byte
	for k := 0; k < 40; k++ {
		programs = append(programs, recycledProgram(t, rng))
	}
	// Twins: straight-line programs that differ only in how many copies of
	// one instruction they run before RET. Each is one block entered at
	// the start of a run, where every timing delta of the key clamps to
	// zero, so the twins' blocks have the same key length and the second
	// twin's entry key equals the key of the first twin's slot 0 — which
	// must not survive into the second program.
	for _, tw := range []struct {
		in   x86.Instr
		a, b int
	}{
		{x86.I(x86.POPCNT, x86.RAX, x86.RBX), 3, 5},
		{x86.I(x86.IMUL, x86.RCX, x86.RDX), 6, 4},
		{x86.I(x86.SHL, x86.RSI, x86.Imm(3)), 2, 7},
	} {
		for _, n := range []int{tw.a, tw.b} {
			g := &progGen{t: t, rng: rng}
			for i := 0; i < n; i++ {
				g.emit(tw.in)
			}
			g.emit(x86.I(x86.RET))
			programs = append(programs, g.buf)
		}
	}
	var earlier [][]shape // earlier[i]: shapes earlier programs built at block index i
	reshaped, multiSlot := 0, 0
	for k, code := range programs {
		var states [2]string
		for i, m := range []*Machine{trace, step} {
			if err := m.WriteCode(testCodeBase, code); err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(testCodeBase)
			if err != nil {
				t.Fatalf("program %d on %v: %v", k, m.Engine(), err)
			}
			states[i] = machineState(t, m, res)
		}
		if states[0] != states[1] {
			t.Fatalf("program %d: trace tier on recycled blocks diverges from step:\nstep:\n%s\ntrace:\n%s",
				k, states[1], states[0])
		}
		for i := range trace.prog.blocks {
			b := &trace.prog.blocks[i]
			s := shape{len(b.steps), fmt.Sprint(b.portSet), fmt.Sprint(b.liveIn)}
			if i == len(earlier) {
				earlier = append(earlier, nil)
			}
			for _, e := range earlier[i] {
				if e.steps != s.steps && e.ports != s.ports && e.liveIns != s.liveIns {
					reshaped++
					break
				}
			}
			earlier[i] = append(earlier[i], s)
			if len(b.slots) > 1 {
				multiSlot++
			}
		}
	}
	// The sequence must actually exercise recycling: blocks of another
	// length, port set and live-in set at indices earlier programs used,
	// and blocks whose slot rotation (the nextOf predictor) spans slots.
	if reshaped < 20 || multiSlot < 20 {
		t.Fatalf("sequence too tame: %d reshaped block indices, %d multi-slot blocks", reshaped, multiSlot)
	}
}
