package machine

import (
	"fmt"

	"nanobench/internal/x86"
)

// program is the pre-decoded form of the most recently installed code
// image. WriteCode decodes the image eagerly, front to back, into a flat
// slice of fused-µop entries (x86.DecodedInstr: flat µop array, resolved
// branch targets, cached line spans); byteIdx maps each code offset that
// starts an instruction to its slice index, and links chains every entry
// to its fallthrough and branch-target successors by index. The
// steady-state front end therefore never maps a RIP at all: straight-line
// entries run as a chain of fall links (the decode-time basic blocks) and
// taken branches jump block-to-block through tgt links.
//
// Entries reached outside the eager scan (a jump into the middle of an
// encoded instruction, code past an undecodable byte) are decoded lazily
// on first execution and their links resolved — and then cached — by the
// run loop.
//
// Any write into [base, base+size) — a WriteData call or a store executed
// by simulated code — drops the program (self-modifying code then runs
// through the slow decode path until the next WriteCode reinstalls it).
type program struct {
	base uint32
	size uint32
	// byteIdx[off] is the index into instrs of the instruction starting at
	// base+off, or -1 if that offset has not been decoded.
	byteIdx []int32
	instrs  []x86.DecodedInstr
	// links[i] chains instrs[i] to its successors by index; -1 marks a
	// successor not yet resolved (or outside the program).
	links []link
	// blocks are the trace-mode execution blocks discovered over this
	// program (see trace.go); blockOf[i] maps instrs[i] to the block it
	// heads (blockNone: not built yet, blockNoTrace: not worth tracing).
	// Living inside program means every install/drop — and therefore
	// every decVersion bump from a code write — discards all cached
	// blocks and their recorded port schedules before the next dispatch.
	// Both keep the backing array, whose storage buildBlock recycles.
	blocks  []traceBlock
	blockOf []int32
}

// link holds the chained successors of one pre-decoded entry: fall is the
// entry at the fallthrough address (instrs[i].Next), tgt the entry at the
// pre-resolved branch target (instrs[i].Target).
type link struct {
	fall int32
	tgt  int32
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
	p.links = p.links[:0]
	p.blocks = p.blocks[:0]
	p.blockOf = p.blockOf[:0]
}

// drop invalidates the program entirely.
func (p *program) drop() {
	p.size = 0
	p.byteIdx = p.byteIdx[:0]
	p.instrs = p.instrs[:0]
	p.links = p.links[:0]
	p.blocks = p.blocks[:0]
	p.blockOf = p.blockOf[:0]
}

// overlaps reports whether the n bytes at addr intersect the program.
func (p *program) overlaps(addr uint32, n int) bool {
	return p.size > 0 && addr < p.base+p.size && addr+uint32(n) > p.base
}

// noteCodeWrite invalidates cached decodes covering the n bytes written at
// addr. The program-region check is two compares on the store hot path;
// invalidation itself is rare (self-modifying code).
func (m *Machine) noteCodeWrite(addr uint32, n int) {
	if m.prog.overlaps(addr, n) {
		m.prog.drop()
		m.decVersion++
	}
}

// predecodeImage decodes the freshly installed image front to back and
// wires the chain links: the linear scan yields the decode-time basic
// blocks (fall links between contiguous entries), and the second pass
// resolves every pre-resolved branch target that lands on a decoded
// entry. Decoding stops at the first undecodable byte; anything past it
// is left to the lazy path (and faults only if actually executed, exactly
// as before).
func (m *Machine) predecodeImage() {
	p := &m.prog
	for off := uint32(0); off < p.size; {
		d, err := m.decodeRaw(p.base + off)
		if err != nil {
			break
		}
		p.instrs = append(p.instrs, d)
		p.links = append(p.links, link{fall: -1, tgt: -1})
		p.blockOf = append(p.blockOf, blockNone)
		p.byteIdx[off] = int32(len(p.instrs) - 1)
		off += uint32(d.Len)
	}
	for i := range p.instrs {
		d := &p.instrs[i]
		if fOff := d.Next - p.base; fOff < p.size {
			p.links[i].fall = p.byteIdx[fOff]
		}
		if d.TargetOK {
			if tOff := d.Target - p.base; tOff < p.size {
				p.links[i].tgt = p.byteIdx[tOff]
			}
		}
	}
}

// progIndexAt returns the program entry index for rip, decoding lazily on
// first execution. It returns -1 (and no error) for addresses outside the
// installed program; those run through the slow decode path.
func (m *Machine) progIndexAt(rip uint32) (int32, error) {
	p := &m.prog
	off := rip - p.base
	if off >= p.size {
		return -1, nil
	}
	if i := p.byteIdx[off]; i >= 0 {
		return i, nil
	}
	if _, err := m.decodeInto(rip, off); err != nil {
		return -1, err
	}
	return p.byteIdx[off], nil
}

// decodedAt returns the pre-decoded instruction at rip. Inside the
// installed program this is two array loads after the first execution;
// other addresses fall back to a versioned map cache.
func (m *Machine) decodedAt(rip uint32) (*x86.DecodedInstr, error) {
	p := &m.prog
	if off := rip - p.base; off < p.size {
		if i := p.byteIdx[off]; i >= 0 {
			return &p.instrs[i], nil
		}
		return m.decodeInto(rip, off)
	}
	return m.decodeSlow(rip)
}

// decodeInto decodes the instruction at rip (program offset off) into the
// program's flat instruction store, with an unresolved link entry.
func (m *Machine) decodeInto(rip, off uint32) (*x86.DecodedInstr, error) {
	d, err := m.decodeRaw(rip)
	if err != nil {
		return nil, err
	}
	m.prog.instrs = append(m.prog.instrs, d)
	m.prog.links = append(m.prog.links, link{fall: -1, tgt: -1})
	m.prog.blockOf = append(m.prog.blockOf, blockNone)
	i := int32(len(m.prog.instrs) - 1)
	m.prog.byteIdx[off] = i
	return &m.prog.instrs[i], nil
}

// decodeSlow serves code outside the installed program through a
// rip-keyed map, invalidated by version bumps on code writes.
func (m *Machine) decodeSlow(rip uint32) (*x86.DecodedInstr, error) {
	if e, ok := m.decCache[rip]; ok && e.version == m.decVersion {
		return &e.d, nil
	}
	d, err := m.decodeRaw(rip)
	if err != nil {
		return nil, err
	}
	e := &decEntry{version: m.decVersion, d: d}
	m.decCache[rip] = e
	return &e.d, nil
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
