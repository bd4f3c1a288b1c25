package x86

import "fmt"

// ArgKind classifies one operand of a pre-decoded instruction into the
// concrete shapes the simulator's execution engine handles, replacing the
// per-step interface type assertions on Instr.Args.
type ArgKind uint8

// Operand kinds.
const (
	ArgNone ArgKind = iota
	ArgGP           // general-purpose register (Reg holds it)
	ArgX            // XMM register (Reg holds it)
	ArgI            // immediate (Imm holds it)
	ArgM            // memory operand (Mem holds it)
)

// DecodedInstr is one fully pre-decoded instruction: the mnemonic, its
// encoded length, concrete operand kinds, and — new with the fused-µop IR —
// everything the execution hot path used to recompute per step or chase
// through the spec pointer, folded flat into the entry itself:
//
//   - the instruction's compute µops (port mask, latency, occupancy) as a
//     dense fixed-size array, so dispatch loops over Uops[:NUops] without
//     touching Spec.Uops;
//   - the flags dependency (ReadsFlags) the scheduler folds into the
//     operand-ready cycle;
//   - the absolute fallthrough address (Next = RIP + Len) and, for direct
//     branches and calls, the absolute target resolved from the
//     rel-immediate at decode time (Target, valid when TargetOK);
//   - the L1I line span of the instruction (LineFirst/LineLast,
//     line-aligned virtual addresses), so fetch is a single compare when
//     execution stays within one cache line.
//
// Pre-decoding happens once per installed code image, so the per-step
// interpreter front end touches no maps, resolves no specs, and performs
// no interface dispatch or address arithmetic.
//
// The x86 subset the simulator supports has at most two explicit operands,
// of which at most one is an immediate and at most one is a memory
// operand; Imm and Mem therefore need no per-argument storage.
type DecodedInstr struct {
	Op    Op
	Class Class
	Len   uint8
	NArgs uint8
	Kind  [2]ArgKind
	// NUops counts the valid entries of Uops; ReadsFlags mirrors the
	// spec's flags dependency. Both are folded from Spec at predecode.
	NUops      uint8
	ReadsFlags bool
	// Fast selects a fused single-µop execution path (see FastKind);
	// ReadsDst/WritesDst are its pre-folded dependency slots: whether the
	// destination operand is an input (CMP reads it, POPCNT does not) and
	// whether it is written (CMP/TEST write no register).
	Fast      FastKind
	ReadsDst  bool
	WritesDst bool
	// ReplaySafe marks a fused instruction whose scheduler side effects
	// (register/flag ready-cycle updates) are a pure function of the
	// entry timing state: re-running it with identical operand-ready
	// deltas reproduces identical dispatch and completion cycles. BSF/BSR
	// (destination written only for a non-zero source) and CL-count
	// shifts (flags written only for a non-zero count held in RCX) update
	// ready cycles value-dependently and are excluded. Trace execution
	// only caches port schedules for blocks of ReplaySafe instructions.
	ReplaySafe bool
	// TargetOK marks Target as a resolved absolute branch/call target.
	TargetOK bool
	// ReadRegs/WriteRegs are GP-register bitmasks (bit r = Reg(r)) of the
	// fused shapes' register reads and writes, folded at predecode so
	// block builders compute live-in sets without re-deriving operand
	// roles. Zero for non-fused instructions. ReadRegs includes the
	// destination when ReadsDst and the implicit RCX of CL-count shifts.
	ReadRegs  uint16
	WriteRegs uint16
	Reg       [2]Reg // register operand at the corresponding index (ArgGP/ArgX)
	Imm       int64  // immediate operand, whichever index holds it
	Mem       Mem    // memory operand, whichever index holds it
	// Next is the absolute fallthrough RIP (the instruction's address plus
	// Len); Target the absolute destination of a direct branch or call.
	Next   uint32
	Target uint32
	// LineFirst and LineLast are the line-aligned virtual addresses of the
	// first and last instruction-cache lines the instruction occupies.
	LineFirst uint32
	LineLast  uint32
	// Uops are the instruction's compute µops, copied flat from the spec.
	Uops [MaxUopsPerInstr]UopSpec
	Spec *InstrSpec
}

// FastKind classifies a pre-decoded instruction into one of the fused
// single-µop execution shapes the hot interpreter handles without the
// generic operand walk: register-only data processing whose dependency
// slots (sources, destination, flags) are fully known at decode time.
// FastNone routes through the generic class dispatch.
type FastKind uint8

// Fused execution shapes.
const (
	FastNone  FastKind = iota
	FastALU2           // binary int ALU, GP destination, GP or imm source
	FastUnary          // unary int ALU on a GP register
	FastMOVRR          // MOV gp, gp
	FastMOVRI          // MOV gp, imm
	FastShift          // shift/rotate on a GP register, imm or CL count
	NumFastKinds
)

// classifyFast folds the fused execution shape and its dependency slots
// into the entry. Only register-only single-µop data processing fuses;
// everything else keeps the generic path.
func classifyFast(d *DecodedInstr) {
	if d.Class != ClassNormal || d.NUops != 1 {
		return
	}
	switch d.Op {
	case MOV:
		if d.Kind[0] == ArgGP {
			switch d.Kind[1] {
			case ArgGP:
				d.Fast = FastMOVRR
				d.ReadRegs = 1 << d.Reg[1]
			case ArgI:
				d.Fast = FastMOVRI
			}
			if d.Fast != FastNone {
				d.WriteRegs = 1 << d.Reg[0]
				d.ReplaySafe = true
			}
		}
	case ADD, SUB, AND, OR, XOR, CMP, TEST, ADC, SBB, IMUL, POPCNT, BSF, BSR:
		if d.NArgs == 2 && d.Kind[0] == ArgGP && (d.Kind[1] == ArgGP || d.Kind[1] == ArgI) {
			d.Fast = FastALU2
			d.ReadsDst = d.Op != POPCNT && d.Op != BSF && d.Op != BSR
			d.WritesDst = d.Op != CMP && d.Op != TEST
			if d.Kind[1] == ArgGP {
				d.ReadRegs = 1 << d.Reg[1]
			}
			if d.ReadsDst {
				d.ReadRegs |= 1 << d.Reg[0]
			}
			if d.WritesDst {
				d.WriteRegs = 1 << d.Reg[0]
			}
			d.ReplaySafe = d.Op != BSF && d.Op != BSR
		}
	case INC, DEC, NEG, NOT, BSWAP:
		if d.NArgs == 1 && d.Kind[0] == ArgGP {
			d.Fast = FastUnary
			d.ReadsDst, d.WritesDst = true, true
			d.ReadRegs = 1 << d.Reg[0]
			d.WriteRegs = 1 << d.Reg[0]
			d.ReplaySafe = true
		}
	case SHL, SHR, SAR, ROL, ROR:
		if d.NArgs == 2 && d.Kind[0] == ArgGP && (d.Kind[1] == ArgI || d.Kind[1] == ArgGP) {
			d.Fast = FastShift
			d.ReadsDst, d.WritesDst = true, true
			d.ReadRegs = 1 << d.Reg[0]
			d.WriteRegs = 1 << d.Reg[0]
			if d.Kind[1] == ArgGP { // count in CL
				d.ReadRegs |= 1 << RCX
			}
			d.ReplaySafe = d.Kind[1] == ArgI
		}
	}
}

// PredecodeAt resolves a decoded instruction of encoded length n at
// virtual address rip into its pre-decoded form, computing the absolute
// fallthrough and branch-target addresses and the instruction's cache-line
// span for lines of 1<<lineShift bytes. It fails on operands the execution
// engine cannot run (unresolved label references).
func PredecodeAt(in Instr, n int, rip uint32, lineShift uint8) (DecodedInstr, error) {
	sp := SpecPtr(in.Op)
	d := DecodedInstr{
		Op:         in.Op,
		Class:      sp.Class,
		Len:        uint8(n),
		NArgs:      uint8(len(in.Args)),
		ReadsFlags: sp.ReadsFlags,
		Spec:       sp,
	}
	d.NUops = uint8(copy(d.Uops[:], sp.Uops))
	if len(in.Args) > 2 {
		return DecodedInstr{}, fmt.Errorf("x86: %s has %d operands; predecode supports 2", in.Op, len(in.Args))
	}
	for i, a := range in.Args {
		switch v := a.(type) {
		case Reg:
			if v.IsXMM() {
				d.Kind[i] = ArgX
			} else {
				d.Kind[i] = ArgGP
			}
			d.Reg[i] = v
		case Imm:
			d.Kind[i] = ArgI
			d.Imm = int64(v)
		case Mem:
			d.Kind[i] = ArgM
			d.Mem = v
		default:
			return DecodedInstr{}, fmt.Errorf("x86: cannot predecode operand %v of %s", a, in.Op)
		}
	}
	d.Next = rip + uint32(n)
	if (d.Class == ClassBranch || d.Class == ClassCall) && d.Kind[0] == ArgI {
		d.Target = uint32(int64(d.Next) + d.Imm)
		d.TargetOK = true
	}
	mask := uint32(1)<<lineShift - 1
	d.LineFirst = rip &^ mask
	d.LineLast = (rip + uint32(n) - 1) &^ mask
	classifyFast(&d)
	return d, nil
}

// RelocAt rewrites the address-derived fields of a pre-decoded
// instruction — the absolute fallthrough, the resolved branch target, and
// the cache-line span — for a copy located at virtual address rip. Every
// other field of a DecodedInstr is a pure function of the encoded bytes,
// so a memoized decode plus RelocAt is equivalent to running PredecodeAt
// at the new address.
func (d *DecodedInstr) RelocAt(rip uint32, lineShift uint8) {
	d.Next = rip + uint32(d.Len)
	if d.TargetOK {
		d.Target = uint32(int64(d.Next) + d.Imm)
	}
	mask := uint32(1)<<lineShift - 1
	d.LineFirst = rip &^ mask
	d.LineLast = (rip + uint32(d.Len) - 1) &^ mask
}

// DecodeOne decodes and pre-decodes the instruction at the start of buf,
// as if it were located at virtual address rip with 1<<lineShift-byte
// instruction-cache lines.
func DecodeOne(buf []byte, rip uint32, lineShift uint8) (DecodedInstr, error) {
	in, n, err := Decode(buf)
	if err != nil {
		return DecodedInstr{}, err
	}
	return PredecodeAt(in, n, rip, lineShift)
}

// Instr reconstructs the generic instruction form, for error messages and
// debug output (cold paths only).
func (d *DecodedInstr) Instr() Instr {
	in := Instr{Op: d.Op}
	for i := 0; i < int(d.NArgs); i++ {
		switch d.Kind[i] {
		case ArgGP, ArgX:
			in.Args = append(in.Args, d.Reg[i])
		case ArgI:
			in.Args = append(in.Args, Imm(d.Imm))
		case ArgM:
			in.Args = append(in.Args, d.Mem)
		}
	}
	return in
}

// String renders the pre-decoded instruction in Intel syntax.
func (d *DecodedInstr) String() string {
	in := d.Instr()
	return in.String()
}
