package machine

import (
	"math/bits"

	"nanobench/internal/sim/pmu"
	"nanobench/internal/x86"
)

// Trace-mode execution: the upper of the engine's two tiers. Both run
// inside RunContext's one loop, which finds every instruction through
// instrAt.
//
//   - step  — the reference tier: RunContext with blocks switched off,
//     executing one instruction per iteration through execOne. Never
//     optimized; the trace tier is property-tested against it
//     (TestChainedMatchesSingleStep, FuzzTraceMatchesStep).
//   - trace — this file: maximal runs of fused single-µop entries
//     (x86.FastKind) execute as one block, with budget/IRQ checks made
//     only at block boundaries, one PMU.Advance per block, and the whole
//     block's PMU events delivered in one RecordBlock walk. Steady-state
//     blocks additionally replay a recorded port schedule ("port-pick
//     cache"), skipping per-µop port selection entirely.
//
// Why block granularity is bit-identical:
//
//   - Fused instructions cannot store, fault (their lines were fetched to
//     decode them; translate failures surface identically through the
//     per-step fetch of record mode), or touch privileged state, so no
//     program drop, IRQ window check, or budget fault can occur inside a
//     block: a budget precheck at entry (with per-instruction fallback)
//     and Run's existing checks at block boundaries observe exactly what
//     the step tier observes. Blocks are only dispatched when user-mode
//     timer interrupts cannot fire.
//   - PMU.Advance(w) is a promise that no future counter read samples
//     below w; raising the watermark less often (once per block instead of
//     once per instruction) settles events later but never changes any
//     counted value. Counter adds commute, so batching the block's issued/
//     port/retired events into one RecordBlock equals the per-instruction
//     RecordFusedStep deliveries.
//
// Why schedule replay is bit-identical: every cycle a block of ReplaySafe
// fused instructions computes — port picks, dispatch starts, completions,
// retirements — is a pure function of the entry timing state visible to
// it: the issue-slot phase, barrier, retire cycle, flag-ready cycle, the
// portFree/portUse entries of the ports its µop masks cover, and the
// ready cycles of its live-in registers (all taken relative to the entry
// front-end cycle; port tie-breaks compare portUse differences only).
// That state is the replay key: on a key match the recorded per-step
// cycles are re-based and applied, the architectural values are recomputed
// through the same ALU helpers, and the exit timing state is restored from
// recorded deltas. Blocks never span an I-cache line (buildBlock splits
// at line boundaries), so one entry fetch covers the whole block;
// instructions whose ready-cycle updates depend on register values
// (BSF/BSR, CL-count shifts — see x86.ReplaySafe) make a block
// record-only.
//
// Blocks and their recorded schedules live inside program, so every
// install/drop — including the drop a self-modifying write causes —
// discards them before the next dispatch.

// blockOf sentinels (see program.blockOf).
const (
	blockNone    = -1 // block not built yet
	blockNoTrace = -2 // entry not worth tracing (short run of fused entries)
)

// traceMinBlock is the shortest run of fused entries worth block
// dispatch; traceMaxBlock bounds block (and recorded-schedule) size.
const (
	traceMinBlock = 2
	traceMaxBlock = 4096
)

// traceSlots is the most recorded schedules a block keeps. The
// issue-slot phase (feSlots) cycles with period up to issueWidth across
// loop iterations, and the port-use rotation composes with it, so a
// single slot would thrash on any loop whose µop count is not a multiple
// of the issue width, and the port-use rank/gap states multiply that
// period; sixteen slots cover the composed steady-state period of every
// loop shape in the test battery.
const traceSlots = 16

// traceSlot is one recorded (entry key → schedule, exit state) pair. The
// schedule is stored as parallel delta arrays (relative to the entry
// front-end cycle) in the exact shape PMU delivery consumes: a replay
// hands issuedD/retiredD/portD straight to RecordBlockDeltas without
// copying a single event, and walks doneD for the value-completion cycles
// the architectural writes need.
type traceSlot struct {
	valid    bool
	key      []int64
	doneD    []int64 // per step: value completion (feeds regReady/flagReady)
	issuedD  []int64 // per step: issue slot
	retiredD []int64 // per step: retirement
	portD    [pmu.NumPortEvents][]int64
	portMask uint32
	// Exit timing state, as deltas against the entry front-end cycle.
	feD     int64
	feSlots int
	retD    int64 // exit retireCycle
	maxDnD  int64 // max raw µop completion: folds into lastCompletion
	// Exit portFree deltas and portUse increments, indexed like portSet.
	portFreeD  []int64
	portUseInc []int64
}

// traceBlock is one maximal run of fused entries executed in a single
// pass by Run's trace tier. A program's blocks are recycled: buildBlock
// reuses the element, and every buffer it holds, that an earlier program
// left past the end of program.blocks.
type traceBlock struct {
	steps   []int32 // program entry indices, in execution order
	exitRIP uint32
	// replayable: every step is x86.ReplaySafe (the block is single-line
	// by construction), so a schedule recorded at an identical entry key
	// can be replayed without per-step fetch or dispatch.
	replayable bool
	line       uint64
	portSet    []uint8 // ascending ports of the union of the steps' µop masks
	liveIn     []uint8 // registers read before written, ascending
	keyLen     int     // replay-key length: fixed per block, set at build
	// slots grows by one each time the block records into a slot it has
	// not used yet, up to traceSlots, so a block that never records costs
	// no schedule storage. Elements past len are recycled storage, fully
	// rewritten before they are recorded into.
	slots    []traceSlot
	nextSlot int
	// Slot-sequence predictor: steady-state loops cycle through their
	// recorded slots in a fixed rotation, so the slot that followed the
	// previous hit is probed first. lastHit is the most recent hit;
	// nextOf[s] the slot that last followed a hit on s.
	lastHit int
	nextOf  [traceSlots]uint8
}

// blockEvents accumulates one block's PMU events for a single
// RecordBlock delivery at block exit.
type blockEvents struct {
	issued  []int64
	retired []int64
	port    [pmu.NumPortEvents][]int64
	mask    uint32
}

// Engine selects Run's execution tier. The zero value is EngineTrace:
// trace mode is the default engine; the seam exists so the differential
// tests (and callers debugging a suspected engine divergence) can force
// the reference tier.
type Engine uint8

// Execution tiers, fastest first. Both produce bit-identical
// architectural state, cycles, and counter values.
const (
	EngineTrace Engine = iota // block dispatch + schedule replay (default)
	EngineStep                // reference tier: one instruction per iteration
)

// String names the tier (benchmark sub-names, test labels).
func (e Engine) String() string {
	switch e {
	case EngineTrace:
		return "trace"
	case EngineStep:
		return "step"
	}
	return "Engine(?)"
}

// SetEngine forces an execution tier; it maps onto the noTrace hook the
// Run loop branches on.
func (m *Machine) SetEngine(e Engine) { m.noTrace = e == EngineStep }

// Engine reports the execution tier Run uses.
func (m *Machine) Engine() Engine {
	if m.noTrace {
		return EngineStep
	}
	return EngineTrace
}

// buildBlock discovers the trace block headed by program entry idx by
// following each fused entry's fallthrough address (Next) through the
// byte index, records its metadata (port set, live-in registers,
// replayability), and caches the result in blockOf. Blocks never span an
// I-cache line: the walk stops at the first entry outside the head's
// line, so one entry fetch covers the whole block and a straight-line
// stream splits into per-line blocks that can each replay a recorded
// schedule. (Block granularity is identity-safe at any split — boundaries
// only set the batching of budget/IRQ checks and PMU delivery.) The walk
// stops at a successor not decoded yet, and Next strictly increases the
// instruction address, so it terminates. Returns the block index or
// blockNoTrace.
//
// The new block takes the next element of program.blocks' backing array,
// so a program reuses the block storage earlier programs left: the step,
// port-set and live-in buffers, and the recorded slots' arrays. The slot
// count and the slot predictor are reset, so a recycled block never
// serves a schedule recorded for another program.
func (m *Machine) buildBlock(idx int32) int32 {
	p := &m.prog
	bi := len(p.blocks)
	if bi == cap(p.blocks) {
		p.blocks = append(p.blocks, traceBlock{})[:bi]
	}
	b := &p.blocks[:bi+1][bi]
	line := uint64(p.instrs[idx].LineFirst)
	steps := b.steps[:0]
	for j := idx; j >= 0 && len(steps) < traceMaxBlock; {
		d := &p.instrs[j]
		if d.Fast == x86.FastNone || uint64(d.LineFirst) != line || d.LineLast != d.LineFirst {
			break
		}
		steps = append(steps, j)
		j = -1
		if off := d.Next - p.base; off < p.size {
			j = p.byteIdx[off]
		}
	}
	b.steps = steps
	if len(steps) < traceMinBlock {
		p.blockOf[idx] = blockNoTrace
		return blockNoTrace
	}
	b.exitRIP = p.instrs[steps[len(steps)-1]].Next
	b.replayable = true
	b.line = line
	b.portSet = b.portSet[:0]
	b.liveIn = b.liveIn[:0]
	b.slots = b.slots[:0]
	b.nextSlot, b.lastHit = 0, 0
	b.nextOf = [traceSlots]uint8{}
	var portMask uint32
	var liveIn, written uint16
	for _, i := range steps {
		d := &p.instrs[i]
		portMask |= uint32(d.Uops[0].Ports)
		liveIn |= d.ReadRegs &^ written
		written |= d.WriteRegs
		if !d.ReplaySafe {
			b.replayable = false
		}
	}
	for mb := portMask; mb != 0; mb &= mb - 1 {
		b.portSet = append(b.portSet, uint8(bits.TrailingZeros32(mb)))
	}
	for mb := liveIn; mb != 0; mb &= mb - 1 {
		b.liveIn = append(b.liveIn, uint8(bits.TrailingZeros16(mb)))
	}
	// Key layout (captureKey): 4 scalars, one portFree delta per portSet
	// entry, the packed port-rank words (the first holds rank 0 plus three
	// 16-bit rank/gap fields, each later one holds four), then one regReady
	// delta per live-in register.
	b.keyLen = 4 + len(b.portSet) + len(b.liveIn)
	if n := len(b.portSet); n > 1 {
		words := 1
		for f := n - 4; f > 0; f -= 4 { // n-1 fields: 3 fit word 0, 4 each after
			words++
		}
		b.keyLen += words
	}
	p.blocks = p.blocks[:bi+1]
	p.blockOf[idx] = int32(bi)
	return int32(bi)
}

// captureKey writes the block's replay key — the entry timing state its
// execution depends on, relative to the entry front-end cycle — into buf
// (grown if needed; the length is fixed per block, see keyLen).
//
// Deltas at or below zero are clamped to zero: every µop's dispatch lower
// bound is at least its issue slot, which is at least the entry
// front-end cycle, so a ready/barrier/port-free cycle in the past is
// indistinguishable from one exactly at entry. Without the clamp,
// throughput-bound loops — whose dependency chains lag ever further
// behind the front end — would drift the raw deltas monotonically and
// never repeat a key.
func (m *Machine) captureKey(b *traceBlock, buf []int64) []int64 {
	c := &m.core
	base := c.feCycle
	if cap(buf) < b.keyLen {
		buf = make([]int64, b.keyLen)
	}
	buf = buf[:b.keyLen]
	buf[0] = int64(c.feSlots)
	buf[1] = clamp0(c.barrier - base)
	buf[2] = clamp0(c.retireCycle - base)
	buf[3] = clamp0(c.flagReady - base)
	k := 4
	for _, p := range b.portSet {
		buf[k] = clamp0(c.portFree[p] - base)
		k++
	}
	// Port tie-breaks compare use counters pairwise, so what the block can
	// observe is the sign of each pairwise difference as its own
	// dispatches move it — by at most len(steps) in total. The canonical
	// exact form is the rank order of the portSet's use counters plus the
	// gaps between rank neighbours, each gap saturated at len(steps)+1: a
	// pair whose true difference fits below the saturation point is
	// reconstructed exactly from the gap sum, and one at or beyond it can
	// never change sign inside the block, so the saturated form decides
	// every comparison identically. Without saturation the counters' slow
	// drift (code outside the block lands on one port more than another)
	// would keep keys from ever repeating.
	// The ranks and saturated gaps are small by construction (rank < 8,
	// gap ≤ traceMaxBlock+1 < 2^13), so they bit-pack into 16-bit fields —
	// one key word per four portSet entries. Packing is deterministic per
	// block, so packed keys compare by plain slice equality.
	if n := len(b.portSet); n > 1 {
		var use [x86.NumPorts]int64
		var ord [x86.NumPorts]uint8
		for i, p := range b.portSet {
			use[i] = c.portUse[p]
			ord[i] = uint8(i)
		}
		for i := 1; i < n; i++ { // insertion sort: n ≤ NumPorts, ties keep portSet order
			for j := i; j > 0 && use[ord[j]] < use[ord[j-1]]; j-- {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			}
		}
		lim := int64(len(b.steps) + 1)
		w := int64(ord[0])
		shift := uint(3)
		for i := 1; i < n; i++ {
			gap := use[ord[i]] - use[ord[i-1]]
			if gap > lim {
				gap = lim
			}
			if shift+16 > 64 {
				buf[k] = w
				k++
				w, shift = 0, 0
			}
			w |= (int64(ord[i]) | gap<<3) << shift
			shift += 16
		}
		buf[k] = w
		k++
	}
	for _, r := range b.liveIn {
		buf[k] = clamp0(c.regReady[r] - base)
		k++
	}
	return buf
}

// matchKey reports whether the live entry state matches a recorded
// slot's key, recomputing each element in lockstep with captureKey —
// which it must mirror exactly — and bailing at the first mismatch.
// This fused compare is the replay fast path: the predicted-slot hit
// never materializes a key buffer at all. (The differential battery and
// FuzzTraceMatchesStep pin the two functions' agreement.)
func (m *Machine) matchKey(b *traceBlock, key []int64) bool {
	c := &m.core
	base := c.feCycle
	if key[0] != int64(c.feSlots) || key[1] != clamp0(c.barrier-base) ||
		key[2] != clamp0(c.retireCycle-base) || key[3] != clamp0(c.flagReady-base) {
		return false
	}
	k := 4
	for _, p := range b.portSet {
		if key[k] != clamp0(c.portFree[p]-base) {
			return false
		}
		k++
	}
	if n := len(b.portSet); n > 1 {
		var use [x86.NumPorts]int64
		var ord [x86.NumPorts]uint8
		for i, p := range b.portSet {
			use[i] = c.portUse[p]
			ord[i] = uint8(i)
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && use[ord[j]] < use[ord[j-1]]; j-- {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			}
		}
		lim := int64(len(b.steps) + 1)
		w := int64(ord[0])
		shift := uint(3)
		for i := 1; i < n; i++ {
			gap := use[ord[i]] - use[ord[i-1]]
			if gap > lim {
				gap = lim
			}
			if shift+16 > 64 {
				if key[k] != w {
					return false
				}
				k++
				w, shift = 0, 0
			}
			w |= (int64(ord[i]) | gap<<3) << shift
			shift += 16
		}
		if key[k] != w {
			return false
		}
		k++
	}
	for _, r := range b.liveIn {
		if key[k] != clamp0(c.regReady[r]-base) {
			return false
		}
		k++
	}
	return true
}

func clamp0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// execBlock runs one trace block: a single watermark Advance, then either
// a schedule replay (key hit) or a recording pass.
func (m *Machine) execBlock(b *traceBlock) error {
	m.PMU.Advance(m.core.feCycle)
	pmuOn := m.PMU.AnyActive()
	if b.replayable {
		// Bring the block's line in up front — exactly the record path's
		// first-step fetch, including any front-end bubble and cache-state
		// update. Every later fetch in the single-line block is a no-op,
		// so the schedule can replay even when control just arrived from
		// another line.
		if err := m.fetch(&m.prog.instrs[b.steps[0]]); err != nil {
			return err
		}
		if m.replayBlock(b, pmuOn) {
			return nil
		}
		return m.execBlockRecord(b, pmuOn, true)
	}
	return m.execBlockRecord(b, pmuOn, false)
}

// execBlockRecord executes the block's steps through the same per-step
// fetch and fused execution as the step tier, accumulating PMU events
// for one end-of-block delivery and (when record is set) capturing the
// port schedule into the block's next replay slot. A recording pass fills
// the slot's event arrays regardless of pmuOn — counters may be active
// when the schedule is later replayed — and delivers straight from them;
// the non-replayable path buffers through m.bev instead.
func (m *Machine) execBlockRecord(b *traceBlock, pmuOn, record bool) error {
	c := &m.core
	base := c.feCycle
	var slot *traceSlot
	if record {
		if n := len(b.slots); b.nextSlot == n {
			if n < cap(b.slots) {
				b.slots = b.slots[:n+1]
			} else {
				b.slots = append(b.slots, traceSlot{})
			}
		}
		slot = &b.slots[b.nextSlot]
		slot.valid = false
		slot.key = m.captureKey(b, slot.key[:0])
		slot.doneD = slot.doneD[:0]
		slot.issuedD = slot.issuedD[:0]
		slot.retiredD = slot.retiredD[:0]
		for mb := slot.portMask; mb != 0; mb &= mb - 1 {
			pt := bits.TrailingZeros32(mb)
			slot.portD[pt] = slot.portD[pt][:0]
		}
		slot.portMask = 0
		slot.maxDnD = 0
		for _, p := range b.portSet {
			m.puEntry[p] = c.portUse[p]
		}
	}
	bev := &m.bev
	instrs := m.prog.instrs
	for _, i := range b.steps {
		d := &instrs[i]
		// Inlined fetch fast path: an entry on the already-fetched line is
		// free, and in a block that is nearly every step.
		if !(c.hasFetchLine && uint64(d.LineFirst) == c.fetchLine && d.LineLast == d.LineFirst) {
			if err := m.fetch(d); err != nil {
				if record {
					if pmuOn {
						m.PMU.RecordBlockDeltas(base, slot.issuedD, slot.retiredD, &slot.portD, slot.portMask)
					}
				} else {
					m.flushBlock(pmuOn)
				}
				return err
			}
		}
		issue, portEv, start, done, dn, ret := m.execFusedStep(d)
		pt := uint8(portEv - pmu.EvUopsPort0)
		if record {
			slot.issuedD = append(slot.issuedD, issue-base)
			slot.portD[pt] = append(slot.portD[pt], start-base)
			slot.portMask |= 1 << pt
			slot.retiredD = append(slot.retiredD, ret-base)
			slot.doneD = append(slot.doneD, done-base)
			if dn-base > slot.maxDnD {
				slot.maxDnD = dn - base
			}
		} else if pmuOn {
			bev.issued = append(bev.issued, issue)
			bev.port[pt] = append(bev.port[pt], start)
			bev.mask |= 1 << pt
			bev.retired = append(bev.retired, ret)
		}
		c.rip = d.Next
	}
	if record {
		if pmuOn {
			m.PMU.RecordBlockDeltas(base, slot.issuedD, slot.retiredD, &slot.portD, slot.portMask)
		}
		slot.feD = c.feCycle - base
		slot.feSlots = c.feSlots
		slot.retD = c.retireCycle - base
		slot.portFreeD = slot.portFreeD[:0]
		slot.portUseInc = slot.portUseInc[:0]
		for _, p := range b.portSet {
			slot.portFreeD = append(slot.portFreeD, c.portFree[p]-base)
			slot.portUseInc = append(slot.portUseInc, c.portUse[p]-m.puEntry[p])
		}
		slot.valid = true
		b.nextSlot = (b.nextSlot + 1) % traceSlots
	} else {
		m.flushBlock(pmuOn)
	}
	return nil
}

// replayBlock replays a recorded schedule if the current entry state
// matches a slot's key: per-step events and value-completion cycles are
// re-based onto the current front-end cycle, architectural values are
// recomputed through the same ALU helpers, and the exit timing state is
// applied from recorded deltas. Returns false on a key miss or when the
// block has recorded nothing yet (the caller records a fresh schedule).
func (m *Machine) replayBlock(b *traceBlock, pmuOn bool) bool {
	if len(b.slots) == 0 {
		return false
	}
	c := &m.core
	// execBlock fetched the block's line, so every per-step fetch would be
	// a no-op; the key (captured after any fetch bubble) covers the rest.
	// The predicted slot is checked with the fused matchKey compare; only
	// a prediction miss materializes the key to scan the other slots.
	var slot *traceSlot
	pred := int(b.nextOf[b.lastHit])
	if s := &b.slots[pred]; s.valid && m.matchKey(b, s.key) {
		slot = s
		b.lastHit = pred
	} else {
		key := m.captureKey(b, m.keyBuf)
		m.keyBuf = key
		for si := range b.slots {
			if si == pred {
				continue
			}
			s := &b.slots[si]
			if s.valid && int64SliceEq(s.key, key) {
				slot = s
				b.nextOf[b.lastHit] = uint8(si)
				b.lastHit = si
				break
			}
		}
		if slot == nil {
			return false
		}
	}
	base := c.feCycle
	instrs := m.prog.instrs
	for k, i := range b.steps {
		m.replayFusedStep(&instrs[i], base+slot.doneD[k])
	}
	if pmuOn {
		m.PMU.RecordBlockDeltas(base, slot.issuedD, slot.retiredD, &slot.portD, slot.portMask)
	}
	c.feCycle = base + slot.feD
	c.feSlots = slot.feSlots
	c.retireCycle = base + slot.retD
	if lc := base + slot.maxDnD; lc > c.lastCompletion {
		c.lastCompletion = lc
	}
	for k, p := range b.portSet {
		c.portFree[p] = base + slot.portFreeD[k]
		c.portUse[p] += slot.portUseInc[k]
	}
	c.instructions += uint64(len(b.steps))
	c.rip = b.exitRIP
	return true
}

// replayFusedStep applies one replayed instruction's architectural
// effects: values go through the same ALU helpers as execFusedStep, with
// the recorded value-completion cycle standing in for the dispatch
// computation. Only ReplaySafe shapes reach here, so the destination
// write (and, inside the helpers, the flag-ready update) happens exactly
// as it did during recording.
func (m *Machine) replayFusedStep(d *x86.DecodedInstr, done int64) {
	c := &m.core
	switch d.Fast {
	case x86.FastALU2:
		r := d.Reg[0]
		var src uint64
		if d.Kind[1] == x86.ArgGP {
			src = c.regs[d.Reg[1]]
		} else {
			src = uint64(d.Imm)
		}
		res, write := m.aluBinary(d.Op, c.regs[r], src, done)
		if write && d.WritesDst {
			c.regs[r] = res
			c.regReady[r] = done
		}
	case x86.FastUnary:
		r := d.Reg[0]
		c.regs[r] = m.aluUnary(d.Op, c.regs[r], done)
		c.regReady[r] = done
	case x86.FastMOVRR:
		c.regs[d.Reg[0]] = c.regs[d.Reg[1]]
		c.regReady[d.Reg[0]] = done
	case x86.FastMOVRI:
		c.regs[d.Reg[0]] = uint64(d.Imm)
		c.regReady[d.Reg[0]] = done
	case x86.FastShift:
		// ReplaySafe shifts have an immediate count (CL counts are
		// value-dependent and excluded at classification).
		r := d.Reg[0]
		c.regs[r] = m.shiftCompute(d.Op, c.regs[r], uint64(d.Imm)&63, done)
		c.regReady[r] = done
	}
}

// flushBlock delivers the buffered block events in one RecordBlock walk
// and resets the buffers. No-op when no counter is active (nothing was
// buffered).
func (m *Machine) flushBlock(pmuOn bool) {
	if !pmuOn {
		return
	}
	bev := &m.bev
	m.PMU.RecordBlock(bev.issued, bev.retired, &bev.port, bev.mask)
	bev.issued = bev.issued[:0]
	bev.retired = bev.retired[:0]
	for mb := bev.mask; mb != 0; mb &= mb - 1 {
		pt := bits.TrailingZeros32(mb)
		bev.port[pt] = bev.port[pt][:0]
	}
	bev.mask = 0
}

func int64SliceEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
