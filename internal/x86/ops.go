package x86

// Op is an instruction mnemonic.
type Op uint16

// OpNone marks a label-only pseudo instruction.
const OpNone Op = 0

// Instruction mnemonics supported by the simulated CPU.
const (
	// Data movement.
	MOV Op = iota + 1
	LEA
	XCHG
	PUSH
	POP
	// Integer ALU.
	ADD
	ADC
	SUB
	SBB
	AND
	OR
	XOR
	CMP
	TEST
	INC
	DEC
	NEG
	NOT
	IMUL
	MUL
	DIV
	SHL
	SHR
	SAR
	ROL
	ROR
	POPCNT
	BSF
	BSR
	BSWAP
	// Control flow.
	JMP
	JZ
	JNZ
	JC
	JNC
	JL
	JGE
	JLE
	JG
	JS
	JNS
	CALL
	RET
	// Miscellaneous.
	NOP
	PAUSE
	UD2
	// Serialization and system instructions.
	LFENCE
	MFENCE
	SFENCE
	CPUID
	RDTSC
	RDPMC
	RDMSR
	WRMSR
	WBINVD
	CLFLUSH
	PREFETCHT0
	CLI
	STI
	// SSE vector instructions.
	MOVAPS
	MOVQ
	ADDPS
	MULPS
	DIVPS
	SQRTPS
	ADDPD
	MULPD
	DIVPD
	ADDSD
	MULSD
	DIVSD
	SQRTSD
	PADDQ
	PAND
	PXOR

	numOps
)

var opNames = map[Op]string{
	MOV: "MOV", LEA: "LEA", XCHG: "XCHG", PUSH: "PUSH", POP: "POP",
	ADD: "ADD", ADC: "ADC", SUB: "SUB", SBB: "SBB", AND: "AND", OR: "OR",
	XOR: "XOR", CMP: "CMP", TEST: "TEST", INC: "INC", DEC: "DEC",
	NEG: "NEG", NOT: "NOT", IMUL: "IMUL", MUL: "MUL", DIV: "DIV",
	SHL: "SHL", SHR: "SHR", SAR: "SAR", ROL: "ROL", ROR: "ROR",
	POPCNT: "POPCNT", BSF: "BSF", BSR: "BSR", BSWAP: "BSWAP",
	JMP: "JMP", JZ: "JZ", JNZ: "JNZ", JC: "JC", JNC: "JNC", JL: "JL",
	JGE: "JGE", JLE: "JLE", JG: "JG", JS: "JS", JNS: "JNS",
	CALL: "CALL", RET: "RET",
	NOP: "NOP", PAUSE: "PAUSE", UD2: "UD2",
	LFENCE: "LFENCE", MFENCE: "MFENCE", SFENCE: "SFENCE",
	CPUID: "CPUID", RDTSC: "RDTSC", RDPMC: "RDPMC", RDMSR: "RDMSR",
	WRMSR: "WRMSR", WBINVD: "WBINVD", CLFLUSH: "CLFLUSH",
	PREFETCHT0: "PREFETCHT0", CLI: "CLI", STI: "STI",
	MOVAPS: "MOVAPS", MOVQ: "MOVQ", ADDPS: "ADDPS", MULPS: "MULPS",
	DIVPS: "DIVPS", SQRTPS: "SQRTPS", ADDPD: "ADDPD", MULPD: "MULPD",
	DIVPD: "DIVPD", ADDSD: "ADDSD", MULSD: "MULSD", DIVSD: "DIVSD",
	SQRTSD: "SQRTSD", PADDQ: "PADDQ", PAND: "PAND", PXOR: "PXOR",
}

var opByName = map[string]Op{}

func init() {
	for op, name := range opNames {
		opByName[name] = op
	}
	// Jcc aliases.
	opByName["JE"] = JZ
	opByName["JNE"] = JNZ
	opByName["JB"] = JC
	opByName["JAE"] = JNC
	opByName["JNB"] = JNC
}

// String returns the canonical mnemonic.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	if op == OpNone {
		return "<label>"
	}
	return "Op(?)"
}

// OpNamed looks up a mnemonic by (case-insensitive) name.
func OpNamed(name string) (Op, bool) {
	op, ok := opByName[upper(name)]
	return op, ok
}

// IsPrivileged reports whether op faults with #GP when executed in user
// mode on the simulated machine. RDPMC is special-cased by the machine
// depending on the CR4.PCE flag and is not listed here.
func (op Op) IsPrivileged() bool {
	switch op {
	case RDMSR, WRMSR, WBINVD, CLI, STI:
		return true
	}
	return false
}
