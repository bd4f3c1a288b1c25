package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"nanobench/internal/x86"
)

// The trace tier (Run executing blocks of fused entries) must be
// observationally identical to single-step execution (one instruction per
// loop iteration). randProgram generates terminating programs that stress
// exactly the cases where the two could diverge: straight-line runs,
// taken and not-taken branches, backward loop edges, jumps resolved
// lazily, and stores into the code region that drop the pre-decoded
// program mid-run.

// progGen emits encodable instructions and tracks patchable slots.
type progGen struct {
	t   *testing.T
	rng *rand.Rand
	buf []byte
	// patchOff is the offset of the imm64 field of a MOV RAX, imm64 slot
	// that self-modifying stores patch (0: none emitted yet).
	patchOff int
}

func (g *progGen) emit(in x86.Instr) {
	g.t.Helper()
	out, err := x86.EncodeInstr(g.buf, in)
	if err != nil {
		g.t.Fatalf("encode %s: %v", in.String(), err)
	}
	g.buf = out
}

// safeRegs excludes RSP (machine stack), R13 (loop counter), and R15.
var safeRegs = []x86.Reg{
	x86.RAX, x86.RBX, x86.RCX, x86.RDX, x86.RSI, x86.RDI,
	x86.R8, x86.R9, x86.R10, x86.R11, x86.R12, x86.R14,
}

func (g *progGen) reg() x86.Reg { return safeRegs[g.rng.Intn(len(safeRegs))] }

// dataSlot picks an 8-byte-aligned address inside the mapped data area.
func (g *progGen) dataSlot() uint32 {
	return testDataBase + uint32(g.rng.Intn(512))*8
}

// emitRandom appends one random instruction (or short branch pattern).
func (g *progGen) emitRandom() {
	switch g.rng.Intn(11) {
	case 0: // mov reg, imm
		g.emit(x86.I(x86.MOV, g.reg(), x86.Imm(g.rng.Int63n(1<<40))))
	case 1: // load
		g.emit(x86.I(x86.MOV, g.reg(), x86.MemAt(g.dataSlot())))
	case 2: // store
		g.emit(x86.I(x86.MOV, x86.MemAt(g.dataSlot()), g.reg()))
	case 3: // shift: immediate count (ReplaySafe) or CL count (record-only)
		ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
		op := ops[g.rng.Intn(len(ops))]
		if g.rng.Intn(2) == 0 {
			g.emit(x86.I(op, g.reg(), x86.RCX))
		} else {
			g.emit(x86.I(op, g.reg(), x86.Imm(int64(g.rng.Intn(32)))))
		}
	case 4: // unary
		ops := []x86.Op{x86.INC, x86.DEC, x86.NEG, x86.NOT, x86.BSWAP}
		g.emit(x86.I(ops[g.rng.Intn(len(ops))], g.reg()))
	case 5: // bit scan / popcount (BSF/BSR are not ReplaySafe: their
		// destination write depends on the source value)
		ops := []x86.Op{x86.POPCNT, x86.BSF, x86.BSR}
		g.emit(x86.I(ops[g.rng.Intn(len(ops))], g.reg(), g.reg()))
	case 6: // forward conditional branch skipping one ALU instruction
		skip, err := x86.EncodeInstr(nil, x86.I(x86.ADD, g.reg(), g.reg()))
		if err != nil {
			g.t.Fatal(err)
		}
		conds := []x86.Op{x86.JZ, x86.JNZ, x86.JS, x86.JNS, x86.JC, x86.JNC}
		g.emit(x86.I(conds[g.rng.Intn(len(conds))], x86.Imm(int64(len(skip)))))
		g.buf = append(g.buf, skip...)
	case 7: // self-modifying store: patch the MOV RAX, imm64 slot's immediate
		if g.patchOff > 0 {
			g.emit(x86.I(x86.MOV, x86.MemAt(testCodeBase+uint32(g.patchOff)), g.reg()))
			break
		}
		fallthrough
	default: // binary ALU
		ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST, x86.ADC, x86.SBB, x86.IMUL}
		op := ops[g.rng.Intn(len(ops))]
		if op == x86.IMUL || g.rng.Intn(2) == 0 { // IMUL has no imm form
			g.emit(x86.I(op, g.reg(), g.reg()))
		} else {
			g.emit(x86.I(op, g.reg(), x86.Imm(int64(g.rng.Intn(1<<16)))))
		}
	}
}

// randProgram builds a terminating random program: an init block, a
// patchable MOV RAX, imm64 slot, then a bounded loop whose body is a
// random instruction mix (possibly patching the slot), closed by DEC/JNZ
// and RET.
func randProgram(t *testing.T, rng *rand.Rand) []byte {
	g := &progGen{t: t, rng: rng}
	for _, r := range safeRegs {
		g.emit(x86.I(x86.MOV, r, x86.Imm(rng.Int63n(1<<32))))
	}
	// Patch slot: an imm64 MOV whose immediate field self-modifying
	// stores overwrite (immediates above 2^32 force the 10-byte form).
	slotStart := len(g.buf)
	g.emit(x86.I(x86.MOV, x86.RAX, x86.Imm(1<<40|int64(rng.Intn(1<<20)))))
	if len(g.buf)-slotStart != 10 {
		t.Fatalf("patch slot encoded to %d bytes, want 10", len(g.buf)-slotStart)
	}
	g.patchOff = slotStart + 2 // REX.W + opcode, then imm64

	g.emit(x86.I(x86.MOV, x86.R13, x86.Imm(int64(2+rng.Intn(3)))))
	loopStart := len(g.buf)
	n := 4 + rng.Intn(12)
	for i := 0; i < n; i++ {
		g.emitRandom()
	}
	g.emit(x86.I(x86.DEC, x86.R13))
	// JNZ back to loopStart: rel32 form is 6 bytes.
	g.emit(x86.I(x86.JNZ, x86.Imm(int64(loopStart)-int64(len(g.buf)+6))))
	g.emit(x86.I(x86.RET))
	return g.buf
}

// machineState snapshots everything the two engines must agree on.
func machineState(t *testing.T, m *Machine, res RunResult) string {
	t.Helper()
	out := fmt.Sprintf("instr=%d cycles=%d irqs=%d floor=%d\n",
		res.Instructions, res.Cycles, res.Interrupts, m.Cycle())
	for _, r := range safeRegs {
		out += fmt.Sprintf("%v=%#x ", r, m.Reg(r))
	}
	out += "\n"
	cy := m.Cycle()
	for _, idx := range []uint32{1<<30 | 0, 1<<30 | 1, 1<<30 | 2, 0, 1, 2, 3} {
		v, ok := m.PMU.ReadPMC(idx, cy)
		out += fmt.Sprintf("pmc[%#x]=%d,%v ", idx, v, ok)
	}
	return out
}

// runProgramEngine executes code twice on a fresh machine under the given
// engine tier and returns the combined observable state (the second run
// executes with a possibly patched image and warm predictors).
func runProgramEngine(t *testing.T, code []byte, e Engine) (string, error) {
	t.Helper()
	m := benchmarkishMachine(t)
	m.SetEngine(e)
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	var state string
	for i := 0; i < 2; i++ {
		res, err := m.Run(testCodeBase)
		if err != nil {
			return "", err
		}
		state += machineState(t, m, res)
	}
	return state, nil
}

// TestChainedMatchesSingleStep is the engine-equivalence property test:
// for randomized programs (random branches, loops, loads/stores, and
// code-region self-writes triggering invalidation), both execution tiers
// — the reference single-step tier and trace mode — must produce
// identical registers, cycle counts, counter values, and error strings.
func TestChainedMatchesSingleStep(t *testing.T) {
	engines := []Engine{EngineStep, EngineTrace}
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			code := randProgram(t, rand.New(rand.NewSource(seed)))
			ref, errRef := runProgramEngine(t, code, engines[0])
			for _, e := range engines[1:] {
				got, err := runProgramEngine(t, code, e)
				if (errRef == nil) != (err == nil) ||
					(errRef != nil && errRef.Error() != err.Error()) {
					t.Fatalf("error divergence: %v=%v %v=%v", engines[0], errRef, e, err)
				}
				if got != ref {
					t.Fatalf("state divergence:\n%v:\n%s\n%v:\n%s", engines[0], ref, e, got)
				}
			}
		})
	}
}

// benchmarkishMachine is newTestMachine plus the realistic counter
// configuration of benchMachine (fixed counters and four programmable
// port counters enabled), so the equivalence check covers PMU recording.
func benchmarkishMachine(t *testing.T) *Machine {
	t.Helper()
	m := newTestMachine(t)
	for i, sel := range []uint64{0xA1 | 0x01<<8, 0xA1 | 0x02<<8, 0xA1 | 0x04<<8, 0xA1 | 0x08<<8} {
		m.WriteMSR(MSRPerfEvtSel0+uint32(i), sel|PerfEvtSelEN)
	}
	m.WriteMSR(MSRFixedCtrCtrl, 0x333)
	m.WriteMSR(MSRPerfGlobalCtl, 0x7<<32|0xF)
	return m
}
