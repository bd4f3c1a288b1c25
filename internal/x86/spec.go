package x86

// PortMask is a bitmask of execution ports a µop may issue to. The
// simulated core has eight ports with a Skylake-like functional layout:
//
//	ports 0,1,5,6: integer ALU (0,1: also vector FP; 0: divider; 6: branch)
//	ports 2,3:     load / address generation
//	port  4:       store data
//	port  7:       store address (simple)
type PortMask uint16

// Execution port bits.
const (
	P0 PortMask = 1 << iota
	P1
	P2
	P3
	P4
	P5
	P6
	P7
)

// NumPorts is the number of execution ports of the simulated core.
const NumPorts = 8

// Common port groups.
const (
	PortsALU    = P0 | P1 | P5 | P6
	PortsLoad   = P2 | P3
	PortsSTA    = P2 | P3 | P7
	PortsSTD    = P4
	PortsVecFP  = P0 | P1
	PortsVecALU = P0 | P1 | P5
	PortsShift  = P0 | P6
	PortsBranch = P0 | P6
)

// portListTab precomputes the port-index list of every possible mask. The
// core's dispatch loop fetches one of these per µop; computing (and
// allocating) the list on every dispatch dominated the scheduler's cost.
var portListTab [1 << NumPorts][]int

func init() {
	for m := range portListTab {
		var out []int
		for i := 0; i < NumPorts; i++ {
			if m&(1<<i) != 0 {
				out = append(out, i)
			}
		}
		portListTab[m] = out
	}
}

// Ports returns the port indices in the mask, in ascending order. The
// returned slice is shared and must not be modified.
func (m PortMask) Ports() []int {
	return portListTab[m&(1<<NumPorts-1)]
}

// UopSpec describes one compute µop of an instruction.
type UopSpec struct {
	Ports     PortMask
	Latency   int // cycles from operands-ready to result-ready
	Occupancy int // cycles the chosen port is blocked (non-pipelined units); min 1
}

// Class selects special handling in the core's timing and semantic model.
type Class uint8

// Instruction classes.
const (
	ClassNormal Class = iota
	ClassNop
	ClassPause
	ClassBranch    // conditional and unconditional jumps
	ClassCall      // call (implicit push)
	ClassRet       // ret (implicit pop)
	ClassLFence    // waits for all prior instructions to complete
	ClassMFence    // lfence + store drain
	ClassSFence    // store drain only
	ClassSerialize // CPUID: full serialization with variable latency
	ClassRDTSC
	ClassRDPMC
	ClassRDMSR
	ClassWRMSR
	ClassWBINVD
	ClassCLFLUSH
	ClassPrefetch
	ClassCLI
	ClassSTI
	ClassUD2
	ClassPush
	ClassPop
)

// MaxUopsPerInstr is the largest number of compute µops any instruction
// in the spec table decodes to. DecodedInstr embeds a flat µop array of
// this size so dispatch never chases Spec.Uops; the init check below
// keeps the bound honest when the table grows.
const MaxUopsPerInstr = 2

// InstrSpec is the ground-truth description of an instruction's µops,
// latency, and implicit effects. This table is what case study I recovers
// through microbenchmarks.
type InstrSpec struct {
	Uops        []UopSpec
	Class       Class
	ReadsFlags  bool
	WritesFlags bool
	ImplReads   []Reg
	ImplWrites  []Reg
}

func alu1() []UopSpec { return []UopSpec{{Ports: PortsALU, Latency: 1, Occupancy: 1}} }

var specs = map[Op]InstrSpec{
	MOV:  {Uops: alu1()},
	LEA:  {Uops: []UopSpec{{Ports: P1 | P5, Latency: 1, Occupancy: 1}}},
	XCHG: {Uops: []UopSpec{{Ports: PortsALU, Latency: 1, Occupancy: 1}, {Ports: PortsALU, Latency: 1, Occupancy: 1}}},
	PUSH: {Class: ClassPush, Uops: alu1(), ImplReads: []Reg{RSP}, ImplWrites: []Reg{RSP}},
	POP:  {Class: ClassPop, Uops: alu1(), ImplReads: []Reg{RSP}, ImplWrites: []Reg{RSP}},

	ADD:  {Uops: alu1(), WritesFlags: true},
	SUB:  {Uops: alu1(), WritesFlags: true},
	AND:  {Uops: alu1(), WritesFlags: true},
	OR:   {Uops: alu1(), WritesFlags: true},
	XOR:  {Uops: alu1(), WritesFlags: true},
	CMP:  {Uops: alu1(), WritesFlags: true},
	TEST: {Uops: alu1(), WritesFlags: true},
	ADC:  {Uops: alu1(), ReadsFlags: true, WritesFlags: true},
	SBB:  {Uops: alu1(), ReadsFlags: true, WritesFlags: true},
	INC:  {Uops: alu1(), WritesFlags: true},
	DEC:  {Uops: alu1(), WritesFlags: true},
	NEG:  {Uops: alu1(), WritesFlags: true},
	NOT:  {Uops: alu1()},

	IMUL: {Uops: []UopSpec{{Ports: P1, Latency: 3, Occupancy: 1}}, WritesFlags: true},
	MUL: {Uops: []UopSpec{{Ports: P1, Latency: 3, Occupancy: 1}, {Ports: P5, Latency: 1, Occupancy: 1}},
		WritesFlags: true, ImplReads: []Reg{RAX}, ImplWrites: []Reg{RAX, RDX}},
	DIV: {Uops: []UopSpec{{Ports: P0, Latency: 36, Occupancy: 21}},
		WritesFlags: true, ImplReads: []Reg{RAX, RDX}, ImplWrites: []Reg{RAX, RDX}},

	SHL: {Uops: []UopSpec{{Ports: PortsShift, Latency: 1, Occupancy: 1}}, WritesFlags: true},
	SHR: {Uops: []UopSpec{{Ports: PortsShift, Latency: 1, Occupancy: 1}}, WritesFlags: true},
	SAR: {Uops: []UopSpec{{Ports: PortsShift, Latency: 1, Occupancy: 1}}, WritesFlags: true},
	ROL: {Uops: []UopSpec{{Ports: PortsShift, Latency: 1, Occupancy: 1}}, WritesFlags: true},
	ROR: {Uops: []UopSpec{{Ports: PortsShift, Latency: 1, Occupancy: 1}}, WritesFlags: true},

	POPCNT: {Uops: []UopSpec{{Ports: P1, Latency: 3, Occupancy: 1}}, WritesFlags: true},
	BSF:    {Uops: []UopSpec{{Ports: P1, Latency: 3, Occupancy: 1}}, WritesFlags: true},
	BSR:    {Uops: []UopSpec{{Ports: P1, Latency: 3, Occupancy: 1}}, WritesFlags: true},
	BSWAP:  {Uops: []UopSpec{{Ports: P1 | P5, Latency: 1, Occupancy: 1}}},

	JMP: {Class: ClassBranch, Uops: []UopSpec{{Ports: P6, Latency: 1, Occupancy: 1}}},
	JZ:  {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JNZ: {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JC:  {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JNC: {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JL:  {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JGE: {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JLE: {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JG:  {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JS:  {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	JNS: {Class: ClassBranch, Uops: []UopSpec{{Ports: PortsBranch, Latency: 1, Occupancy: 1}}, ReadsFlags: true},
	CALL: {Class: ClassCall, Uops: []UopSpec{{Ports: P6, Latency: 2, Occupancy: 1}},
		ImplReads: []Reg{RSP}, ImplWrites: []Reg{RSP}},
	RET: {Class: ClassRet, Uops: []UopSpec{{Ports: P6, Latency: 2, Occupancy: 1}},
		ImplReads: []Reg{RSP}, ImplWrites: []Reg{RSP}},

	NOP:   {Class: ClassNop},
	PAUSE: {Class: ClassPause},
	UD2:   {Class: ClassUD2},

	LFENCE: {Class: ClassLFence},
	MFENCE: {Class: ClassMFence},
	SFENCE: {Class: ClassSFence},
	CPUID: {Class: ClassSerialize, ImplReads: []Reg{RAX, RCX},
		ImplWrites: []Reg{RAX, RBX, RCX, RDX}},
	RDTSC: {Class: ClassRDTSC, Uops: []UopSpec{{Ports: P0, Latency: 25, Occupancy: 1}, {Ports: P1, Latency: 25, Occupancy: 1}},
		ImplWrites: []Reg{RAX, RDX}},
	RDPMC: {Class: ClassRDPMC, Uops: []UopSpec{{Ports: P0, Latency: 30, Occupancy: 1}, {Ports: P1, Latency: 30, Occupancy: 1}},
		ImplReads: []Reg{RCX}, ImplWrites: []Reg{RAX, RDX}},
	RDMSR: {Class: ClassRDMSR, Uops: []UopSpec{{Ports: P0, Latency: 120, Occupancy: 4}},
		ImplReads: []Reg{RCX}, ImplWrites: []Reg{RAX, RDX}},
	WRMSR:      {Class: ClassWRMSR, ImplReads: []Reg{RCX, RAX, RDX}},
	WBINVD:     {Class: ClassWBINVD},
	CLFLUSH:    {Class: ClassCLFLUSH, Uops: []UopSpec{{Ports: PortsSTA, Latency: 10, Occupancy: 2}}},
	PREFETCHT0: {Class: ClassPrefetch},
	CLI:        {Class: ClassCLI},
	STI:        {Class: ClassSTI},

	MOVAPS: {Uops: []UopSpec{{Ports: PortsVecALU, Latency: 1, Occupancy: 1}}},
	MOVQ:   {Uops: []UopSpec{{Ports: P0 | P5, Latency: 2, Occupancy: 1}}},
	ADDPS:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	MULPS:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	DIVPS:  {Uops: []UopSpec{{Ports: P0, Latency: 11, Occupancy: 3}}},
	SQRTPS: {Uops: []UopSpec{{Ports: P0, Latency: 12, Occupancy: 3}}},
	ADDPD:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	MULPD:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	DIVPD:  {Uops: []UopSpec{{Ports: P0, Latency: 14, Occupancy: 4}}},
	ADDSD:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	MULSD:  {Uops: []UopSpec{{Ports: PortsVecFP, Latency: 4, Occupancy: 1}}},
	DIVSD:  {Uops: []UopSpec{{Ports: P0, Latency: 14, Occupancy: 4}}},
	SQRTSD: {Uops: []UopSpec{{Ports: P0, Latency: 18, Occupancy: 6}}},
	PADDQ:  {Uops: []UopSpec{{Ports: PortsVecALU, Latency: 1, Occupancy: 1}}},
	PAND:   {Uops: []UopSpec{{Ports: PortsVecALU, Latency: 1, Occupancy: 1}}},
	PXOR:   {Uops: []UopSpec{{Ports: PortsVecALU, Latency: 1, Occupancy: 1}}},
}

// specTab is the array-backed spec table: the per-instruction map lookup
// in Spec was a measurable share of interpreter time, so the map literal
// above is flattened into a dense array indexed by Op at init.
var (
	specTab   [numOps]InstrSpec
	specKnown [numOps]bool
)

func init() {
	for op, s := range specs {
		if len(s.Uops) > MaxUopsPerInstr {
			panic("x86: " + op.String() + " exceeds MaxUopsPerInstr; grow DecodedInstr.Uops")
		}
		specTab[op] = s
		specKnown[op] = true
	}
}

// Spec returns the ground-truth specification for op. It panics if the op
// has no specification (every supported mnemonic must have one; a test
// enforces this).
func Spec(op Op) InstrSpec {
	return *SpecPtr(op)
}

// SpecPtr returns a pointer to the shared specification for op in O(1).
// Callers must not mutate the returned spec. It panics if the op has no
// specification.
func SpecPtr(op Op) *InstrSpec {
	if op >= numOps || !specKnown[op] {
		panic("x86: missing spec for " + op.String())
	}
	return &specTab[op]
}

// HasSpec reports whether op has a timing specification.
func HasSpec(op Op) bool {
	return op < numOps && specKnown[op]
}
