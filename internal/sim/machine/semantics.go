package machine

import (
	"fmt"
	"math"
	"math/bits"

	"nanobench/internal/sim/pmu"
	"nanobench/internal/x86"
)

// execNormal handles data-processing instructions (integer ALU, moves,
// shifts, multiply/divide, and SSE arithmetic) for all operand shapes.
// Operands arrive pre-classified in the decoded instruction, so no
// interface dispatch happens on this path.
func (m *Machine) execNormal(d *x86.DecodedInstr) error {
	switch d.Op {
	case x86.MOV, x86.MOVAPS, x86.MOVQ:
		return m.execMove(d)
	case x86.LEA:
		return m.execLEA(d)
	case x86.XCHG:
		return m.execXCHG(d)
	case x86.MUL, x86.DIV:
		return m.execMulDiv(d)
	}
	if d.NArgs > 0 && d.Kind[0] == x86.ArgX {
		return m.execSSE(d)
	}
	return m.execIntALU(d)
}

// readArg reads the source operand at index i and its ready cycle,
// dispatching a load µop for memory operands.
func (m *Machine) readArg(d *x86.DecodedInstr, i int) (uint64, int64, error) {
	c := &m.core
	switch d.Kind[i] {
	case x86.ArgGP:
		r := d.Reg[i]
		return c.regs[r], c.regReady[r], nil
	case x86.ArgX:
		x := d.Reg[i] - x86.XMM0
		return c.xmm[x][0], c.xmmReady[x], nil
	case x86.ArgI:
		return uint64(d.Imm), 0, nil
	case x86.ArgM:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return 0, 0, err
		}
		val, done, _, err := m.load(addr, 8, aready)
		return val, done, err
	}
	return 0, 0, &Fault{RIP: c.rip, Reason: "unsupported operand"}
}

// dispatchCompute dispatches the decoded entry's compute µops — the flat
// array folded in at predecode time — with the given operand-ready cycle
// and returns the completion cycle of the result.
func (m *Machine) dispatchCompute(d *x86.DecodedInstr, ready int64) int64 {
	done := ready
	for i := 0; i < int(d.NUops); i++ {
		u := &d.Uops[i]
		_, dn := m.dispatch(u.Ports, ready, u.Latency, u.Occupancy)
		if dn > done {
			done = dn
		}
	}
	if d.NUops == 0 {
		m.issueSlot()
	}
	return done
}

func (m *Machine) execMove(d *x86.DecodedInstr) error {
	c := &m.core
	switch d.Kind[0] {
	case x86.ArgGP, x86.ArgX:
		dst := d.Reg[0]
		switch d.Kind[1] {
		case x86.ArgM:
			addr, aready, err := m.memOperandAddr(d.Mem)
			if err != nil {
				return err
			}
			if d.Kind[0] == x86.ArgX {
				// 128-bit (MOVAPS) or 64-bit (MOVQ) load.
				v, done, _, err := m.load(addr, 8, aready)
				if err != nil {
					return err
				}
				var hi uint64
				if d.Op == x86.MOVAPS {
					var ok bool
					if hi, ok = m.Mem.Read64(addr + 8); !ok {
						return &Fault{RIP: c.rip, Reason: "#PF: partial vector load"}
					}
				}
				c.xmm[dst-x86.XMM0] = [2]uint64{v, hi}
				c.xmmReady[dst-x86.XMM0] = done
				m.retire(done)
				return nil
			}
			v, done, _, err := m.load(addr, 8, aready)
			if err != nil {
				return err
			}
			m.setReg(dst, v, done)
			m.retire(done)
			return nil
		case x86.ArgGP, x86.ArgX:
			src := d.Reg[1]
			var v [2]uint64
			var ready int64
			if d.Kind[1] == x86.ArgX {
				v = c.xmm[src-x86.XMM0]
				ready = c.xmmReady[src-x86.XMM0]
			} else {
				v = [2]uint64{c.regs[src], 0}
				ready = c.regReady[src]
			}
			done := m.dispatchCompute(d, ready)
			if d.Kind[0] == x86.ArgX {
				if d.Op == x86.MOVQ {
					v[1] = 0
				}
				c.xmm[dst-x86.XMM0] = v
				c.xmmReady[dst-x86.XMM0] = done
			} else {
				m.setReg(dst, v[0], done)
			}
			m.retire(done)
			return nil
		case x86.ArgI:
			done := m.dispatchCompute(d, 0)
			m.setReg(dst, uint64(d.Imm), done)
			m.retire(done)
			return nil
		}
	case x86.ArgM:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return err
		}
		var val uint64
		var hi uint64
		var vready int64
		writeHi := false
		switch d.Kind[1] {
		case x86.ArgGP:
			val, vready = c.regs[d.Reg[1]], c.regReady[d.Reg[1]]
		case x86.ArgX:
			s := d.Reg[1] - x86.XMM0
			val, hi = c.xmm[s][0], c.xmm[s][1]
			vready = c.xmmReady[s]
			writeHi = d.Op == x86.MOVAPS
		case x86.ArgI:
			val = uint64(d.Imm)
		}
		if writeHi {
			// Both halves of a 16-byte store commit or neither does: a
			// high half reaching an unmapped page faults before the low
			// half is written (16 bytes touch at most two pages).
			if _, ok := m.Mem.Translate(addr); ok {
				if _, ok := m.Mem.Translate(addr + 15); !ok {
					return &Fault{RIP: c.rip, Reason: "#PF: partial vector store"}
				}
			}
		}
		done, err := m.store(addr, 8, val, aready, vready)
		if err != nil {
			return err
		}
		if writeHi {
			m.Mem.Write64(addr+8, hi)
			m.noteCodeWrite(addr+8, 8)
		}
		m.retire(done)
		return nil
	}
	return &Fault{RIP: c.rip, Reason: fmt.Sprintf("unsupported MOV form %s", d.String())}
}

func (m *Machine) execLEA(d *x86.DecodedInstr) error {
	if d.Kind[0] != x86.ArgGP || d.Kind[1] != x86.ArgM {
		return &Fault{RIP: m.core.rip, Reason: fmt.Sprintf("unsupported LEA form %s", d.String())}
	}
	addr, aready, err := m.memOperandAddr(d.Mem)
	if err != nil {
		return err
	}
	done := m.dispatchCompute(d, aready)
	m.setReg(d.Reg[0], uint64(addr), done)
	m.retire(done)
	return nil
}

func (m *Machine) execXCHG(d *x86.DecodedInstr) error {
	c := &m.core
	if d.Kind[0] == x86.ArgGP && d.Kind[1] == x86.ArgGP {
		r0, r1 := d.Reg[0], d.Reg[1]
		ready := maxI64(c.regReady[r0], c.regReady[r1])
		done := m.dispatchCompute(d, ready)
		c.regs[r0], c.regs[r1] = c.regs[r1], c.regs[r0]
		c.regReady[r0], c.regReady[r1] = done, done
		m.retire(done)
		return nil
	}
	// One memory operand: load, swap, store (no LOCK semantics needed on
	// a single simulated core).
	var reg x86.Reg
	if d.Kind[0] == x86.ArgGP {
		reg = d.Reg[0]
	} else {
		reg = d.Reg[1]
	}
	addr, aready, err := m.memOperandAddr(d.Mem)
	if err != nil {
		return err
	}
	old, ldone, _, err := m.load(addr, 8, aready)
	if err != nil {
		return err
	}
	done := m.dispatchCompute(d, maxI64(ldone, c.regReady[reg]))
	sdone, err := m.store(addr, 8, c.regs[reg], aready, done)
	if err != nil {
		return err
	}
	m.setReg(reg, old, done)
	m.retire(maxI64(done, sdone))
	return nil
}

func (m *Machine) execMulDiv(d *x86.DecodedInstr) error {
	c := &m.core
	src, sready, err := m.readArg(d, 0)
	if err != nil {
		return err
	}
	ready := maxI64(sready, c.regReady[x86.RAX])
	if d.Op == x86.DIV {
		ready = maxI64(ready, c.regReady[x86.RDX])
	}
	done := m.dispatchCompute(d, ready)
	switch d.Op {
	case x86.MUL:
		hi, lo := bits.Mul64(c.regs[x86.RAX], src)
		m.setReg(x86.RAX, lo, done)
		m.setReg(x86.RDX, hi, done)
		c.cf, c.of = hi != 0, hi != 0
	case x86.DIV:
		hi, lo := c.regs[x86.RDX], c.regs[x86.RAX]
		if src == 0 || hi >= src {
			return &Fault{RIP: c.rip, Reason: "#DE: divide error"}
		}
		q, r := bits.Div64(hi, lo, src)
		m.setReg(x86.RAX, q, done)
		m.setReg(x86.RDX, r, done)
	}
	c.flagReady = done
	m.retire(done)
	return nil
}

// execIntALU handles the generic integer ALU patterns.
func (m *Machine) execIntALU(d *x86.DecodedInstr) error {
	c := &m.core
	op := d.Op

	// Unary register/memory forms.
	if d.NArgs == 1 {
		switch d.Kind[0] {
		case x86.ArgGP:
			r := d.Reg[0]
			ready := c.regReady[r]
			if d.ReadsFlags {
				ready = maxI64(ready, c.flagReady)
			}
			done := m.dispatchCompute(d, ready)
			res := m.aluUnary(op, c.regs[r], done)
			m.setReg(r, res, done)
			m.retire(done)
			return nil
		case x86.ArgM:
			addr, aready, err := m.memOperandAddr(d.Mem)
			if err != nil {
				return err
			}
			val, ldone, _, err := m.load(addr, 8, aready)
			if err != nil {
				return err
			}
			done := m.dispatchCompute(d, ldone)
			res := m.aluUnary(op, val, done)
			sdone, err := m.store(addr, 8, res, aready, done)
			if err != nil {
				return err
			}
			m.retire(maxI64(done, sdone))
			return nil
		}
	}

	if d.NArgs != 2 {
		return &Fault{RIP: c.rip, Reason: fmt.Sprintf("unsupported form %s", d.String())}
	}

	// Shift instructions: the count is an immediate or CL.
	if op == x86.SHL || op == x86.SHR || op == x86.SAR || op == x86.ROL || op == x86.ROR {
		return m.execShift(d)
	}

	srcVal, sready, err := m.readArg(d, 1)
	if err != nil {
		return err
	}

	// Is the destination read? CMP/TEST read both but write none;
	// POPCNT/BSF/BSR only read the source.
	readsDst := true
	writesDst := true
	switch op {
	case x86.CMP, x86.TEST:
		writesDst = false
	case x86.POPCNT, x86.BSF, x86.BSR:
		readsDst = false
	}

	switch d.Kind[0] {
	case x86.ArgGP:
		r := d.Reg[0]
		ready := sready
		if readsDst {
			ready = maxI64(ready, c.regReady[r])
		}
		if d.ReadsFlags {
			ready = maxI64(ready, c.flagReady)
		}
		done := m.dispatchCompute(d, ready)
		res, write := m.aluBinary(op, c.regs[r], srcVal, done)
		if write && writesDst {
			m.setReg(r, res, done)
		}
		m.retire(done)
		return nil
	case x86.ArgM:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return err
		}
		val, ldone, _, err := m.load(addr, 8, aready)
		if err != nil {
			return err
		}
		ready := maxI64(ldone, sready)
		if d.ReadsFlags {
			ready = maxI64(ready, c.flagReady)
		}
		done := m.dispatchCompute(d, ready)
		res, write := m.aluBinary(op, val, srcVal, done)
		if write && writesDst {
			sdone, err := m.store(addr, 8, res, aready, done)
			if err != nil {
				return err
			}
			done = maxI64(done, sdone)
		}
		m.retire(done)
		return nil
	}
	return &Fault{RIP: c.rip, Reason: fmt.Sprintf("unsupported form %s", d.String())}
}

func (m *Machine) execShift(d *x86.DecodedInstr) error {
	c := &m.core
	count, cready := m.shiftCount(d)

	switch d.Kind[0] {
	case x86.ArgGP:
		r := d.Reg[0]
		ready := maxI64(c.regReady[r], cready)
		done := m.dispatchCompute(d, ready)
		m.setReg(r, m.shiftCompute(d.Op, c.regs[r], count, done), done)
		m.retire(done)
		return nil
	case x86.ArgM:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return err
		}
		val, ldone, _, err := m.load(addr, 8, aready)
		if err != nil {
			return err
		}
		done := m.dispatchCompute(d, maxI64(ldone, cready))
		res := m.shiftCompute(d.Op, val, count, done)
		sdone, err := m.store(addr, 8, res, aready, done)
		if err != nil {
			return err
		}
		m.retire(maxI64(done, sdone))
		return nil
	}
	return &Fault{RIP: c.rip, Reason: "unsupported shift form"}
}

// shiftCount resolves a shift's count operand (imm or CL) and the cycle
// it is ready.
func (m *Machine) shiftCount(d *x86.DecodedInstr) (uint64, int64) {
	c := &m.core
	switch d.Kind[1] {
	case x86.ArgI:
		return uint64(d.Imm) & 63, 0
	case x86.ArgGP: // CL
		return c.regs[x86.RCX] & 63, c.regReady[x86.RCX]
	}
	return 0, 0
}

// shiftCompute applies a shift/rotate of count bits and sets flags; done
// is the cycle the flags become ready. A count of zero leaves value and
// flags untouched, like hardware.
func (m *Machine) shiftCompute(op x86.Op, val, count uint64, done int64) uint64 {
	c := &m.core
	if count == 0 {
		return val
	}
	var res uint64
	switch op {
	case x86.SHL:
		res = val << count
		c.cf = (val>>(64-count))&1 == 1
	case x86.SHR:
		res = val >> count
		c.cf = (val>>(count-1))&1 == 1
	case x86.SAR:
		res = uint64(int64(val) >> count)
		c.cf = (val>>(count-1))&1 == 1
	case x86.ROL:
		res = bits.RotateLeft64(val, int(count))
		c.cf = res&1 == 1
	case x86.ROR:
		res = bits.RotateLeft64(val, -int(count))
		c.cf = res>>63 == 1
	}
	if op != x86.ROL && op != x86.ROR {
		c.zf = res == 0
		c.sf = res>>63 == 1
		c.of = false
	}
	c.flagReady = done
	return res
}

// execFusedStep runs the fused single-µop shapes classified at predecode
// time (x86.FastKind): register-only data processing whose operand-ready
// dependency slots were folded flat into the entry. Each arm performs
// exactly the operations of its generic counterpart — same µop dispatch,
// same ALU helper, same retire — in the same order, so timing and
// counter values are bit-identical; only the per-step operand walk and
// call chain are gone.
//
// The instruction's PMU events are returned, not delivered: execOne
// forwards them to one RecordFusedStep call, while trace-mode block
// execution buffers them for a single end-of-block RecordBlock delivery
// (counter adds commute, so the deferral is observationally identical).
// dn is the µop's raw dispatch completion (what lastCompletion tracks)
// and done the value-ready cycle max(ready, dn); trace recording stores
// both to reproduce exit state and operand ready cycles on replay.
func (m *Machine) execFusedStep(d *x86.DecodedInstr) (issue int64, portEv pmu.Event, start, done, dn, retired int64) {
	c := &m.core
	u := &d.Uops[0]
	var ready int64
	switch d.Fast {
	case x86.FastALU2:
		r := d.Reg[0]
		var src uint64
		if d.Kind[1] == x86.ArgGP {
			s := d.Reg[1]
			src, ready = c.regs[s], c.regReady[s]
		} else {
			src = uint64(d.Imm)
		}
		if d.ReadsDst && c.regReady[r] > ready {
			ready = c.regReady[r]
		}
		if d.ReadsFlags && c.flagReady > ready {
			ready = c.flagReady
		}
		issue, portEv, start, dn = m.dispatchQuiet(u.Ports, ready, u.Latency, u.Occupancy)
		done = maxI64(ready, dn)
		res, write := m.aluBinary(d.Op, c.regs[r], src, done)
		if write && d.WritesDst {
			c.regs[r] = res
			c.regReady[r] = done
		}
	case x86.FastUnary:
		r := d.Reg[0]
		ready = c.regReady[r]
		if d.ReadsFlags && c.flagReady > ready {
			ready = c.flagReady
		}
		issue, portEv, start, dn = m.dispatchQuiet(u.Ports, ready, u.Latency, u.Occupancy)
		done = maxI64(ready, dn)
		res := m.aluUnary(d.Op, c.regs[r], done)
		c.regs[r] = res
		c.regReady[r] = done
	case x86.FastMOVRR:
		s := d.Reg[1]
		v := c.regs[s]
		ready = c.regReady[s]
		issue, portEv, start, dn = m.dispatchQuiet(u.Ports, ready, u.Latency, u.Occupancy)
		done = maxI64(ready, dn)
		c.regs[d.Reg[0]] = v
		c.regReady[d.Reg[0]] = done
	case x86.FastMOVRI:
		issue, portEv, start, dn = m.dispatchQuiet(u.Ports, 0, u.Latency, u.Occupancy)
		done = dn
		c.regs[d.Reg[0]] = uint64(d.Imm)
		c.regReady[d.Reg[0]] = done
	case x86.FastShift:
		count, cready := m.shiftCount(d)
		r := d.Reg[0]
		ready = maxI64(c.regReady[r], cready)
		issue, portEv, start, dn = m.dispatchQuiet(u.Ports, ready, u.Latency, u.Occupancy)
		done = maxI64(ready, dn)
		res := m.shiftCompute(d.Op, c.regs[r], count, done)
		c.regs[r] = res
		c.regReady[r] = done
	}
	retired = m.retireQuiet(done)
	return issue, portEv, start, done, dn, retired
}

// aluUnary computes unary integer operations and sets flags; done is the
// cycle the flags become ready.
func (m *Machine) aluUnary(op x86.Op, a uint64, done int64) uint64 {
	c := &m.core
	var res uint64
	switch op {
	case x86.INC:
		res = a + 1
		c.zf, c.sf = res == 0, res>>63 == 1
		c.of = res == 1<<63
		c.flagReady = done // CF preserved
	case x86.DEC:
		res = a - 1
		c.zf, c.sf = res == 0, res>>63 == 1
		c.of = res == 1<<63-1
		c.flagReady = done
	case x86.NEG:
		res = -a
		c.cf = a != 0
		c.zf, c.sf = res == 0, res>>63 == 1
		c.of = a == 1<<63
		c.flagReady = done
	case x86.NOT:
		res = ^a // no flags
	case x86.BSWAP:
		res = bits.ReverseBytes64(a) // no flags
	default:
		res = a
	}
	return res
}

// aluBinary computes binary integer operations. It returns the result and
// whether the destination is written (CMP/TEST return false).
func (m *Machine) aluBinary(op x86.Op, a, b uint64, done int64) (uint64, bool) {
	c := &m.core
	setAddFlags := func(res uint64, carry uint64) {
		c.cf = carry != 0
		c.zf = res == 0
		c.sf = res>>63 == 1
		c.of = (a^res)&(b^res)>>63 != 0
		c.flagReady = done
	}
	setSubFlags := func(res uint64, borrow uint64) {
		c.cf = borrow != 0
		c.zf = res == 0
		c.sf = res>>63 == 1
		c.of = (a^b)&(a^res)>>63 != 0
		c.flagReady = done
	}
	setLogicFlags := func(res uint64) {
		c.cf, c.of = false, false
		c.zf = res == 0
		c.sf = res>>63 == 1
		c.flagReady = done
	}
	switch op {
	case x86.ADD:
		res, carry := bits.Add64(a, b, 0)
		setAddFlags(res, carry)
		return res, true
	case x86.ADC:
		carryIn := uint64(0)
		if c.cf {
			carryIn = 1
		}
		res, carry := bits.Add64(a, b, carryIn)
		setAddFlags(res, carry)
		return res, true
	case x86.SUB:
		res, borrow := bits.Sub64(a, b, 0)
		setSubFlags(res, borrow)
		return res, true
	case x86.SBB:
		borrowIn := uint64(0)
		if c.cf {
			borrowIn = 1
		}
		res, borrow := bits.Sub64(a, b, borrowIn)
		setSubFlags(res, borrow)
		return res, true
	case x86.CMP:
		res, borrow := bits.Sub64(a, b, 0)
		setSubFlags(res, borrow)
		return res, false
	case x86.AND:
		res := a & b
		setLogicFlags(res)
		return res, true
	case x86.OR:
		res := a | b
		setLogicFlags(res)
		return res, true
	case x86.XOR:
		res := a ^ b
		setLogicFlags(res)
		return res, true
	case x86.TEST:
		setLogicFlags(a & b)
		return 0, false
	case x86.IMUL:
		x, y := int64(a), int64(b)
		res := x * y
		ovf := x != 0 && res/x != y
		c.cf, c.of = ovf, ovf
		c.flagReady = done
		return uint64(res), true
	case x86.POPCNT:
		res := uint64(bits.OnesCount64(b))
		c.zf = b == 0
		c.cf, c.sf, c.of = false, false, false
		c.flagReady = done
		return res, true
	case x86.BSF:
		if b == 0 {
			c.zf = true
			c.flagReady = done
			return a, false
		}
		c.zf = false
		c.flagReady = done
		return uint64(bits.TrailingZeros64(b)), true
	case x86.BSR:
		if b == 0 {
			c.zf = true
			c.flagReady = done
			return a, false
		}
		c.zf = false
		c.flagReady = done
		return uint64(63 - bits.LeadingZeros64(b)), true
	}
	return a, false
}

// execSSE handles vector arithmetic with an XMM destination.
func (m *Machine) execSSE(d *x86.DecodedInstr) error {
	c := &m.core
	dst := d.Reg[0] - x86.XMM0
	var src [2]uint64
	var sready int64
	switch d.Kind[1] {
	case x86.ArgX:
		s := d.Reg[1] - x86.XMM0
		src = c.xmm[s]
		sready = c.xmmReady[s]
	case x86.ArgM:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return err
		}
		lo, done, _, err := m.load(addr, 8, aready)
		if err != nil {
			return err
		}
		hi, ok := m.Mem.Read64(addr + 8)
		if !ok {
			return &Fault{RIP: c.rip, Reason: "#PF: partial vector load"}
		}
		src = [2]uint64{lo, hi}
		sready = done
	}
	ready := maxI64(sready, c.xmmReady[dst])
	done := m.dispatchCompute(d, ready)
	c.xmm[dst] = vecCompute(d.Op, c.xmm[dst], src)
	c.xmmReady[dst] = done
	m.retire(done)
	return nil
}

func vecCompute(op x86.Op, a, b [2]uint64) [2]uint64 {
	ps := func(f func(x, y float32) float32) [2]uint64 {
		var out [2]uint64
		for w := 0; w < 2; w++ {
			lo := f(math.Float32frombits(uint32(a[w])), math.Float32frombits(uint32(b[w])))
			hi := f(math.Float32frombits(uint32(a[w]>>32)), math.Float32frombits(uint32(b[w]>>32)))
			out[w] = uint64(math.Float32bits(lo)) | uint64(math.Float32bits(hi))<<32
		}
		return out
	}
	pd := func(f func(x, y float64) float64) [2]uint64 {
		var out [2]uint64
		for w := 0; w < 2; w++ {
			out[w] = math.Float64bits(f(math.Float64frombits(a[w]), math.Float64frombits(b[w])))
		}
		return out
	}
	sd := func(f func(x, y float64) float64) [2]uint64 {
		return [2]uint64{math.Float64bits(f(math.Float64frombits(a[0]), math.Float64frombits(b[0]))), a[1]}
	}
	switch op {
	case x86.ADDPS:
		return ps(func(x, y float32) float32 { return x + y })
	case x86.MULPS:
		return ps(func(x, y float32) float32 { return x * y })
	case x86.DIVPS:
		return ps(func(x, y float32) float32 { return x / y })
	case x86.SQRTPS:
		return ps(func(_, y float32) float32 { return float32(math.Sqrt(float64(y))) })
	case x86.ADDPD:
		return pd(func(x, y float64) float64 { return x + y })
	case x86.MULPD:
		return pd(func(x, y float64) float64 { return x * y })
	case x86.DIVPD:
		return pd(func(x, y float64) float64 { return x / y })
	case x86.ADDSD:
		return sd(func(x, y float64) float64 { return x + y })
	case x86.MULSD:
		return sd(func(x, y float64) float64 { return x * y })
	case x86.DIVSD:
		return sd(func(x, y float64) float64 { return x / y })
	case x86.SQRTSD:
		return sd(func(_, y float64) float64 { return math.Sqrt(y) })
	case x86.PADDQ:
		return [2]uint64{a[0] + b[0], a[1] + b[1]}
	case x86.PAND:
		return [2]uint64{a[0] & b[0], a[1] & b[1]}
	case x86.PXOR:
		return [2]uint64{a[0] ^ b[0], a[1] ^ b[1]}
	}
	return a
}

// evalCond evaluates a conditional-branch predicate against the flags.
func (m *Machine) evalCond(op x86.Op) bool {
	c := &m.core
	switch op {
	case x86.JZ:
		return c.zf
	case x86.JNZ:
		return !c.zf
	case x86.JC:
		return c.cf
	case x86.JNC:
		return !c.cf
	case x86.JS:
		return c.sf
	case x86.JNS:
		return !c.sf
	case x86.JL:
		return c.sf != c.of
	case x86.JGE:
		return c.sf == c.of
	case x86.JLE:
		return c.zf || c.sf != c.of
	case x86.JG:
		return !c.zf && c.sf == c.of
	}
	return false
}
