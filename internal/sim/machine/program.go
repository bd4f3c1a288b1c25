package machine

import (
	"fmt"

	"nanobench/internal/x86"
)

// program is the pre-decoded form of the most recently installed code
// image. WriteCode decodes the image eagerly, front to back, into a flat
// slice of fused-µop entries (x86.DecodedInstr: flat µop array, resolved
// branch targets, cached line spans), and byteIdx maps each code offset
// that starts an instruction to its slice index, so finding the
// instruction at a RIP inside the program is two array loads (instrAt).
//
// Entries reached outside the eager scan (a jump into the middle of an
// encoded instruction, code past an undecodable byte) are decoded lazily
// on first execution.
//
// Any write into [base, base+size) — a WriteData call or a store executed
// by simulated code — drops the program (self-modifying code then runs
// from its current bytes through the decode memo until the next WriteCode
// reinstalls it).
type program struct {
	base uint32
	size uint32
	// byteIdx[off] is the index into instrs of the instruction starting at
	// base+off, or -1 if that offset has not been decoded.
	byteIdx []int32
	instrs  []x86.DecodedInstr
	// blocks are the trace-mode execution blocks discovered over this
	// program (see trace.go); blockOf[i] maps instrs[i] to the block it
	// heads (blockNone: not built yet, blockNoTrace: not worth tracing).
	// Living inside program means every install/drop — and therefore
	// every code write — discards all cached blocks and their recorded
	// port schedules before the next dispatch. Both keep the backing
	// array, whose storage buildBlock recycles.
	blocks  []traceBlock
	blockOf []int32
}

// install resets the program to cover size bytes at base, reusing the
// backing arrays from the previous installation.
func (p *program) install(base uint32, size int) {
	p.base = base
	p.size = uint32(size)
	if cap(p.byteIdx) < size {
		p.byteIdx = make([]int32, size)
	}
	p.byteIdx = p.byteIdx[:size]
	for i := range p.byteIdx {
		p.byteIdx[i] = -1
	}
	p.instrs = p.instrs[:0]
	p.blocks = p.blocks[:0]
	p.blockOf = p.blockOf[:0]
}

// drop invalidates the program entirely.
func (p *program) drop() {
	p.size = 0
	p.byteIdx = p.byteIdx[:0]
	p.instrs = p.instrs[:0]
	p.blocks = p.blocks[:0]
	p.blockOf = p.blockOf[:0]
}

// add appends d as the entry of the instruction at program offset off and
// returns its index.
func (p *program) add(off uint32, d x86.DecodedInstr) int32 {
	p.instrs = append(p.instrs, d)
	p.blockOf = append(p.blockOf, blockNone)
	i := int32(len(p.instrs) - 1)
	p.byteIdx[off] = i
	return i
}

// overlaps reports whether the n bytes at addr intersect the program.
func (p *program) overlaps(addr uint32, n int) bool {
	return p.size > 0 && addr < p.base+p.size && addr+uint32(n) > p.base
}

// noteCodeWrite drops the program when the n bytes written at addr
// overlap it. The program-region check is two compares on the store hot
// path; invalidation itself is rare (self-modifying code).
func (m *Machine) noteCodeWrite(addr uint32, n int) {
	if m.prog.overlaps(addr, n) {
		m.prog.drop()
	}
}

// predecodeImage decodes the freshly installed image front to back.
// Decoding stops at the first undecodable byte; anything past it is left
// to the lazy path (and faults only if actually executed).
func (m *Machine) predecodeImage() {
	p := &m.prog
	for off := uint32(0); off < p.size; {
		d, err := m.decodeRaw(p.base + off)
		if err != nil {
			break
		}
		p.add(off, d)
		off += uint32(d.Len)
	}
}

// instrAt returns the decoded instruction at rip and its program index:
// the one way RunContext finds the instruction to execute, on either
// engine tier. Inside the installed program it is the byte index's entry;
// elsewhere the index is -1 and the instruction is decoded from the bytes
// memory holds now (see decodeAt).
func (m *Machine) instrAt(rip uint32) (*x86.DecodedInstr, int32, error) {
	if off := rip - m.prog.base; off < uint32(len(m.prog.byteIdx)) {
		if i := m.prog.byteIdx[off]; i >= 0 {
			return &m.prog.instrs[i], i, nil
		}
	}
	return m.decodeAt(rip)
}

// decodeAt is instrAt's decoding path. An instruction inside the program
// is decoded once, on first execution, into the program's flat store.
// One outside it is decoded on every execution through decodeRaw's
// content memo, so code rewritten outside the program — which drops no
// program — runs its new bytes; the decoded copy lives in m.outside until
// the next instruction outside the program.
func (m *Machine) decodeAt(rip uint32) (*x86.DecodedInstr, int32, error) {
	d, err := m.decodeRaw(rip)
	if err != nil {
		return nil, -1, err
	}
	p := &m.prog
	if off := rip - p.base; off < uint32(len(p.byteIdx)) {
		i := p.add(off, d)
		return &p.instrs[i], i, nil
	}
	m.outside = d
	return &m.outside, -1, nil
}

// decKey identifies a decode-memo entry: the raw code-byte window an
// instruction was decoded from (n valid bytes, zero-padded). Decoding is
// a pure function of the window, so identical windows always produce the
// same instruction up to the address-derived fields, which RelocAt
// recomputes on every hit.
type decKey struct {
	b [15]byte
	n uint8
}

// decMemoCap bounds the content-keyed decode memo; when full, the map is
// reset rather than evicted entry-by-entry (the working set of distinct
// instruction encodings in any one experiment is far below the cap).
const decMemoCap = 1 << 16

// decodeRaw decodes and pre-decodes the instruction at rip from simulated
// memory, resolving its fallthrough/target addresses and line span.
//
// Results are memoized by code-byte content, not by address: experiment
// drivers regenerate near-identical images for every access sequence, and
// the eager predecode in WriteCode would otherwise re-run the full decoder
// over thousands of repeated MOV/branch encodings. The memo never needs
// invalidation — changed bytes are a different key.
func (m *Machine) decodeRaw(rip uint32) (x86.DecodedInstr, error) {
	var key decKey
	n := 15
	for ; n > 0; n-- {
		if m.Mem.Read(rip, key.b[:n]) {
			break
		}
	}
	if n == 0 {
		return x86.DecodedInstr{}, &Fault{RIP: rip, Reason: "code read from unmapped memory"}
	}
	key.n = uint8(n)
	if d, ok := m.decMemo[key]; ok {
		d.RelocAt(rip, m.lineShift)
		return d, nil
	}
	in, ln, err := x86.Decode(key.b[:n])
	if err != nil {
		return x86.DecodedInstr{}, &Fault{RIP: rip, Reason: fmt.Sprintf("undecodable instruction: %v", err)}
	}
	d, err := x86.PredecodeAt(in, ln, rip, m.lineShift)
	if err != nil {
		return x86.DecodedInstr{}, &Fault{RIP: rip, Reason: err.Error()}
	}
	if len(m.decMemo) >= decMemoCap {
		m.decMemo = make(map[decKey]x86.DecodedInstr, decMemoCap)
	}
	m.decMemo[key] = d
	return d, nil
}
