package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"nanobench/internal/sim/cache"
	"nanobench/internal/sim/pmu"
	"nanobench/internal/x86"
)

// coreState is the architectural and timing state of the simulated core.
//
// The timing model is a simplified out-of-order scheduler: every µop gets a
// dispatch cycle no earlier than its issue slot, its operands' ready
// cycles, the current serialization barrier, and the earliest free cycle of
// a compatible execution port. Architectural effects are applied in program
// order, so values are always exact; only the cycle bookkeeping models the
// out-of-order pipeline.
type coreState struct {
	regs [x86.NumGP]uint64
	xmm  [x86.NumXMM][2]uint64
	zf   bool
	sf   bool
	cf   bool
	of   bool
	rip  uint32

	regReady  [x86.NumGP]int64
	xmmReady  [x86.NumXMM]int64
	flagReady int64

	portFree [x86.NumPorts]int64
	portUse  [x86.NumPorts]int64

	feCycle        int64 // front-end: cycle the next issue slot is in
	feSlots        int   // µops issued in the current front-end cycle
	lastCompletion int64 // max completion cycle over all µops
	lastStoreDone  int64
	barrier        int64 // µops may not dispatch before this cycle
	retireCycle    int64

	instructions uint64
	fetchLine    uint64
	hasFetchLine bool

	// stbuf is a small ring of recent stores used for store-to-load
	// forwarding: a load overlapping a recent store cannot begin before
	// the store's data is ready. stbufLen counts the occupied entries
	// (saturating at the ring size) so loads skip the scan entirely until
	// the first store. stbufLo/stbufHi bound the address ranges of all
	// entries ever buffered (expanded on insert, never shrunk): a load
	// outside the bounds cannot be contained in any entry and skips the
	// scan. The bounds go stale as entries are overwritten, which only
	// costs unnecessary scans, never wrong forwarding — load-only
	// microbenchmark regions (e.g. the cache tools' big area) stay
	// outside the prologue's store range, making their loads O(1) here.
	stbuf    [storeBufSize]storeEntry
	stbufPos int
	stbufLen int
	stbufLo  uint64
	stbufHi  uint64

	pred predictor
}

// storeBufSize approximates the store-buffer depth of the modelled core.
const storeBufSize = 56

// fwdLatency is the store-to-load forwarding latency in cycles.
const fwdLatency = 5

type storeEntry struct {
	addr uint32
	size uint8
	done int64
}

// issueWidth is the front-end issue width in µops per cycle.
const issueWidth = 4

func (c *coreState) cycleFloor() int64 {
	v := c.feCycle
	if c.retireCycle > v {
		v = c.retireCycle
	}
	if c.lastCompletion > v {
		v = c.lastCompletion
	}
	return v
}

var portEvents = [x86.NumPorts]pmu.Event{
	pmu.EvUopsPort0, pmu.EvUopsPort1, pmu.EvUopsPort2, pmu.EvUopsPort3,
	pmu.EvUopsPort4, pmu.EvUopsPort5, pmu.EvUopsPort6, pmu.EvUopsPort7,
}

// issueSlot consumes one front-end issue slot and returns its cycle.
func (m *Machine) issueSlot() int64 {
	c := &m.core
	cyc := c.feCycle
	m.PMU.Record(pmu.EvUopsIssued, cyc)
	c.feSlots++
	if c.feSlots >= issueWidth {
		c.feCycle++
		c.feSlots = 0
	}
	return cyc
}

// pickPort chooses the execution port of the mask that can start
// earliest at or after lb; ties break by least total use, like a
// load-balancing scheduler. This yields the steady 50/50 split on ports
// 2/3 for load streams and the even spread of ALU µops across ports
// 0/1/5/6. Ports are scanned in ascending index order (bit iteration),
// matching the precomputed port-list order exactly.
func (c *coreState) pickPort(ports x86.PortMask, lb int64) (int, int64) {
	best := -1
	var bestStart int64
	for mb := uint(ports); mb != 0; mb &= mb - 1 {
		p := bits.TrailingZeros(mb)
		s := lb
		if c.portFree[p] > s {
			s = c.portFree[p]
		}
		if best < 0 || s < bestStart || (s == bestStart && c.portUse[p] < c.portUse[best]) {
			best, bestStart = p, s
		}
	}
	return best, bestStart
}

// dispatch schedules one µop: it takes an issue slot, waits for operands
// (ready), the serialization barrier, and a free port from the mask, and
// returns the dispatch and completion cycles. The µop's issued and
// port-dispatch events are delivered in one batched PMU call.
func (m *Machine) dispatch(ports x86.PortMask, ready int64, lat, occ int) (start, done int64) {
	if ports == 0 {
		c := &m.core
		issue := m.issueSlot()
		start = maxI64(maxI64(ready, issue), c.barrier)
		done = start + int64(lat)
		if done > c.lastCompletion {
			c.lastCompletion = done
		}
		return start, done
	}
	issue, portEv, bestStart, done := m.dispatchQuiet(ports, ready, lat, occ)
	m.PMU.RecordUop(issue, portEv, bestStart)
	return bestStart, done
}

// dispatchQuiet is dispatch minus the PMU deliveries: the fused
// single-µop paths batch the whole instruction's events (issue, port,
// retirement) into one RecordFusedStep call instead. The mask must be
// non-empty (every fused shape has a real port set).
func (m *Machine) dispatchQuiet(ports x86.PortMask, ready int64, lat, occ int) (issue int64, portEv pmu.Event, start, done int64) {
	c := &m.core
	issue = c.feCycle
	c.feSlots++
	if c.feSlots >= issueWidth {
		c.feCycle++
		c.feSlots = 0
	}
	lb := maxI64(maxI64(ready, issue), c.barrier)
	best, bestStart := c.pickPort(ports, lb)
	if occ < 1 {
		occ = 1
	}
	c.portFree[best] = bestStart + int64(occ)
	c.portUse[best]++
	done = bestStart + int64(lat)
	if done > c.lastCompletion {
		c.lastCompletion = done
	}
	return issue, portEvents[best], bestStart, done
}

// dispatchAll dispatches every µop of the decoded entry's flat µop array
// with a common operand-ready cycle and returns the earliest dispatch
// start (the cycle counter-read instructions sample at) and the latest
// completion.
func (m *Machine) dispatchAll(d *x86.DecodedInstr, ready int64) (start, done int64) {
	first := true
	for i := 0; i < int(d.NUops); i++ {
		u := &d.Uops[i]
		s, dn := m.dispatch(u.Ports, ready, u.Latency, u.Occupancy)
		if first || s < start {
			start = s
		}
		first = false
		if dn > done {
			done = dn
		}
	}
	return start, done
}

// retire completes an instruction whose last µop finishes at done, records
// the retirement event, and returns the retire cycle.
func (m *Machine) retire(done int64) int64 {
	at := m.retireQuiet(done)
	m.PMU.Record(pmu.EvInstRetired, at)
	return at
}

// retireQuiet is retire without the PMU delivery, for the fused paths
// that batch the retirement event with the µop events.
func (m *Machine) retireQuiet(done int64) int64 {
	c := &m.core
	if done > c.retireCycle {
		c.retireCycle = done
	}
	if c.feCycle > c.retireCycle {
		c.retireCycle = c.feCycle
	}
	c.instructions++
	return c.retireCycle
}

// fetch models instruction fetch through the L1I for the lines the
// decoded entry spans. The span is pre-computed at decode time
// (d.LineFirst/d.LineLast), so the dominant case — execution staying
// within the line fetched last — is a single compare instead of per-step
// line arithmetic.
func (m *Machine) fetch(d *x86.DecodedInstr) error {
	c := &m.core
	if c.hasFetchLine && uint64(d.LineFirst) == c.fetchLine && d.LineLast == d.LineFirst {
		return nil
	}
	lineSz := uint64(m.Hier.LineSize())
	for line := uint64(d.LineFirst); line <= uint64(d.LineLast); line += lineSz {
		if c.hasFetchLine && line == c.fetchLine {
			continue
		}
		phys, ok := m.Mem.Translate(uint32(line))
		if !ok {
			return &Fault{RIP: c.rip, Reason: "instruction fetch from unmapped memory"}
		}
		res := m.Hier.Code(phys)
		if m.sink != nil {
			m.sink.Code(line, phys, res.Level)
		}
		if res.Level > 1 {
			// Fetch bubble: the front end stalls for the extra latency.
			c.feCycle += int64(res.Latency - m.Hier.L1I.Geom.Latency)
			c.feSlots = 0
		}
		c.fetchLine = line
		c.hasFetchLine = true
	}
	return nil
}

// execOne executes one pre-decoded instruction. Everything the scheduler
// needs — the flat µop array, the flags dependency, the fallthrough and
// branch-target addresses, the L1I line span — is read from the entry
// itself; the spec pointer is only for cold paths. It returns done=true
// when the top-level RET transfers to the sentinel address.
func (m *Machine) execOne(d *x86.DecodedInstr) (bool, error) {
	c := &m.core
	// Every future counter read samples at a dispatch cycle, which cannot
	// be below the current front-end cycle: tell the PMU so it can settle
	// its out-of-order event tails (see pmu.EventCounter). Outside trace
	// blocks this watermark contract is per instruction.
	m.PMU.Advance(c.feCycle)
	if err := m.fetch(d); err != nil {
		return false, err
	}

	op := d.Op
	if op.IsPrivileged() && m.mode != Kernel {
		return false, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#GP: %s is privileged", op)}
	}

	// Fused shapes (register-only single-µop data processing) skip the
	// class dispatch and the generic operand walk entirely.
	if d.Fast != x86.FastNone {
		issue, portEv, start, _, _, retired := m.execFusedStep(d)
		m.PMU.RecordFusedStep(issue, portEv, start, retired)
		c.rip = d.Next
		return false, nil
	}

	nextRIP := d.Next

	switch d.Class {
	case x86.ClassNop:
		m.issueSlot()
		m.retire(c.feCycle)

	case x86.ClassPause:
		m.issueSlot()
		c.feCycle += 30
		c.feSlots = 0
		m.retire(c.feCycle)

	case x86.ClassUD2:
		return false, &Fault{RIP: c.rip, Reason: "#UD: UD2 executed"}

	case x86.ClassLFence:
		m.issueSlot()
		done := maxI64(c.lastCompletion, c.feCycle) + 1
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		// LFENCE gates execution of everything that follows; the issue
		// clock advances with it so post-fence instruction timing starts
		// at the fence, not at the (long since passed) issue slots.
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassMFence:
		m.issueSlot()
		done := maxI64(maxI64(c.lastCompletion, c.lastStoreDone), c.feCycle) + 3
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassSFence:
		m.issueSlot()
		done := maxI64(c.lastStoreDone, c.feCycle) + 1
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassSerialize: // CPUID
		m.issueSlot()
		lat := m.cpuidLatency()
		done := maxI64(c.lastCompletion, c.feCycle) + lat
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		m.execCPUID(done)
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassRDTSC:
		// The TSC is sampled at the earliest µop dispatch, like RDPMC.
		start, done := m.dispatchAll(d, c.feCycle)
		tsc := uint64(float64(start) * m.Spec.RefRatio)
		m.setReg(x86.RAX, tsc&0xFFFFFFFF, done)
		m.setReg(x86.RDX, tsc>>32, done)
		m.retire(done)

	case x86.ClassRDPMC:
		if m.mode != Kernel && !m.cr4pce {
			return false, &Fault{RIP: c.rip, Reason: "#GP: RDPMC with CR4.PCE=0 in user mode"}
		}
		start, done := m.dispatchAll(d, c.regReady[x86.RCX])
		idx := uint32(c.regs[x86.RCX])
		// The counter value is sampled at the µop's dispatch cycle: this
		// is what makes unfenced reads unreliable.
		v, ok := m.PMU.ReadPMC(idx, start)
		if !ok {
			return false, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#GP: RDPMC index %#x", idx)}
		}
		if m.sink != nil {
			m.sink.CtrRead(idx, false)
		}
		m.setReg(x86.RAX, v&0xFFFFFFFF, done)
		m.setReg(x86.RDX, v>>32, done)
		m.retire(done)

	case x86.ClassRDMSR:
		ready := c.regReady[x86.RCX]
		u := d.Uops[0]
		start, done := m.dispatch(u.Ports, ready, u.Latency, u.Occupancy)
		v, ok := m.readMSR(uint32(c.regs[x86.RCX]), start)
		if !ok {
			return false, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#GP: RDMSR %#x", uint32(c.regs[x86.RCX]))}
		}
		if m.sink != nil {
			m.sink.CtrRead(uint32(c.regs[x86.RCX]), true)
		}
		m.setReg(x86.RAX, v&0xFFFFFFFF, done)
		m.setReg(x86.RDX, v>>32, done)
		m.retire(done)

	case x86.ClassWRMSR:
		m.issueSlot()
		ready := maxI64(c.regReady[x86.RCX], maxI64(c.regReady[x86.RAX], c.regReady[x86.RDX]))
		done := maxI64(maxI64(c.lastCompletion, ready), c.feCycle) + 150
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		v := c.regs[x86.RDX]<<32 | c.regs[x86.RAX]&0xFFFFFFFF
		if ok := m.writeMSR(uint32(c.regs[x86.RCX]), v, done); !ok {
			return false, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#GP: WRMSR %#x", uint32(c.regs[x86.RCX]))}
		}
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassWBINVD:
		m.issueSlot()
		flushed := m.Hier.Flush()
		if m.sink != nil {
			m.sink.Flush()
		}
		done := maxI64(c.lastCompletion, c.feCycle) + 1000 + 2*int64(flushed)
		c.barrier = maxI64(c.barrier, done)
		c.lastCompletion = done
		c.feCycle = maxI64(c.feCycle, done)
		c.feSlots = 0
		m.retire(done)

	case x86.ClassCLFLUSH:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return false, err
		}
		phys, ok := m.Mem.Translate(addr)
		if !ok {
			return false, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#PF: CLFLUSH of unmapped %#x", addr)}
		}
		m.Hier.FlushLine(phys)
		if m.sink != nil {
			m.sink.FlushLine(phys)
		}
		u := d.Uops[0]
		_, done := m.dispatch(u.Ports, aready, u.Latency, u.Occupancy)
		m.retire(done)

	case x86.ClassPrefetch:
		addr, aready, err := m.memOperandAddr(d.Mem)
		if err != nil {
			return false, err
		}
		if phys, ok := m.Mem.Translate(addr); ok {
			res := m.Hier.Data(phys, false) // prefetches fill but raise no load events
			if m.sink != nil {
				m.sink.Data(phys, false, false, res.Level)
			}
		}
		_, done := m.dispatch(x86.PortsLoad, aready, 1, 1)
		m.retire(done)

	case x86.ClassCLI:
		m.issueSlot()
		m.ifEn = false
		m.retire(c.feCycle)

	case x86.ClassSTI:
		m.issueSlot()
		m.ifEn = true
		m.retire(c.feCycle)

	case x86.ClassBranch:
		taken, target, err := m.execBranch(d)
		if err != nil {
			return false, err
		}
		if taken {
			nextRIP = target
		}

	case x86.ClassCall:
		target, err := m.execCall(d)
		if err != nil {
			return false, err
		}
		nextRIP = target

	case x86.ClassRet:
		target, err := m.execRet()
		if err != nil {
			return false, err
		}
		if target == SentinelRIP {
			c.rip = target
			return true, nil
		}
		nextRIP = target

	case x86.ClassPush:
		if err := m.execPush(d); err != nil {
			return false, err
		}

	case x86.ClassPop:
		if err := m.execPop(d); err != nil {
			return false, err
		}

	default:
		if err := m.execNormal(d); err != nil {
			return false, err
		}
	}

	c.rip = nextRIP
	return false, nil
}

// cpuidLatency models CPUID's variable execution time: a base cost plus a
// noisy component, occasionally spiking by hundreds of cycles (Paoloni's
// observation, Section IV-A1).
func (m *Machine) cpuidLatency() int64 {
	lat := int64(120 + m.rng.Intn(40))
	if m.rng.Intn(8) == 0 {
		lat += int64(m.rng.Intn(400))
	}
	return lat
}

func (m *Machine) execCPUID(done int64) {
	c := &m.core
	leaf := uint32(c.regs[x86.RAX])
	var a, b, cx, d uint64
	switch leaf {
	case 0:
		a, b, cx, d = 0x16, 0x756E6547, 0x6C65746E, 0x49656E69 // "GenuineIntel"
	case 1:
		a = 0x000506E3 // family/model/stepping of a Skylake part
		b, cx, d = 0, 0x7FFAFBBF, 0xBFEBFBFF
	default:
		a, b, cx, d = 0, 0, 0, 0
	}
	m.setReg(x86.RAX, a, done)
	m.setReg(x86.RBX, b, done)
	m.setReg(x86.RCX, cx, done)
	m.setReg(x86.RDX, d, done)
}

// setReg writes a register value and its ready cycle.
func (m *Machine) setReg(r x86.Reg, v uint64, ready int64) {
	m.core.regs[r] = v
	m.core.regReady[r] = ready
}

// memOperandAddr computes the effective address of a memory operand and
// the cycle its address registers are ready.
func (m *Machine) memOperandAddr(mo x86.Mem) (uint32, int64, error) {
	c := &m.core
	if mo.AbsValid {
		return mo.Abs, 0, nil
	}
	var addr uint64
	var ready int64
	if mo.Base != x86.RegNone {
		addr += c.regs[mo.Base]
		ready = c.regReady[mo.Base]
	}
	if mo.Index != x86.RegNone {
		scale := uint64(mo.Scale)
		if scale == 0 {
			scale = 1
		}
		addr += c.regs[mo.Index] * scale
		if c.regReady[mo.Index] > ready {
			ready = c.regReady[mo.Index]
		}
	}
	addr += uint64(int64(mo.Disp))
	if addr >= 1<<32 {
		return 0, 0, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#GP: effective address %#x above 4 GB", addr)}
	}
	return uint32(addr), ready, nil
}

// load dispatches a load µop for size bytes at virtual address addr and
// returns the value, the completion cycle, and the hierarchy result.
func (m *Machine) load(addr uint32, size int, addrReady int64) (uint64, int64, cache.Result, error) {
	c := &m.core
	phys, ok := m.Mem.Translate(addr)
	if !ok {
		return 0, 0, cache.Result{}, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#PF: load from unmapped %#x", addr)}
	}
	res := m.Hier.Data(phys, false)
	if m.sink != nil {
		m.sink.Data(phys, false, m.PMU.AnyActive(), res.Level)
	}
	// Store-to-load forwarding: a load overlapping a buffered store waits
	// for the store data and bypasses the cache latency. The ring is
	// walked newest-first with a plain decrement-and-wrap cursor, and not
	// at all before the first store.
	lat := res.Latency
	ready := addrReady
	if c.stbufLen > 0 && uint64(addr) >= c.stbufLo && uint64(addr)+uint64(size) <= c.stbufHi {
		idx := c.stbufPos
		for k := 0; k < c.stbufLen; k++ {
			idx--
			if idx < 0 {
				idx = storeBufSize - 1
			}
			e := &c.stbuf[idx]
			if addr >= e.addr && addr+uint32(size) <= e.addr+uint32(e.size) {
				if e.done > ready {
					ready = e.done
				}
				if lat > fwdLatency {
					lat = fwdLatency
				}
				break
			}
		}
	}
	start, done := m.dispatch(x86.PortsLoad, ready, lat, 1)
	_ = start
	var buf [8]byte
	if !m.Mem.Read(addr, buf[:size]) {
		return 0, 0, res, &Fault{RIP: c.rip, Reason: "#PF: partial load"}
	}
	v := binary.LittleEndian.Uint64(buf[:])
	m.recordLoadEvents(res)
	return v, done, res, nil
}

// recordLoadEvents records the retired-load hit/miss events and uncore
// lookups for one demand load. The core events are gathered into one
// per-event count vector and delivered through a single PMU.RecordBatch
// walk instead of up to six Record calls.
func (m *Machine) recordLoadEvents(res cache.Result) {
	c := &m.core
	at := c.retireCycle
	if c.feCycle > at {
		at = c.feCycle
	}
	if !m.PMU.AnyActive() {
		// Counting paused (or no core counter programmed): only the
		// uncore C-Box counters can observe this load.
		if res.Slice >= 0 && res.Slice < len(m.CBox) {
			m.CBox[res.Slice].Record(pmu.CBoLookup, at)
			if res.Level == 4 {
				m.CBox[res.Slice].Record(pmu.CBoMiss, at)
			}
		}
		return
	}
	var counts [pmu.NumEvents]uint16
	counts[pmu.EvLoadRetired] = 1
	if res.Level == 1 {
		counts[pmu.EvLoadL1Hit] = 1
	} else {
		counts[pmu.EvLoadL1Miss] = 1
	}
	if res.Level >= 2 {
		if res.Level == 2 {
			counts[pmu.EvLoadL2Hit] = 1
		} else {
			counts[pmu.EvLoadL2Miss] = 1
		}
	}
	if res.Level >= 3 {
		if res.Level == 3 {
			counts[pmu.EvLoadL3Hit] = 1
		} else {
			counts[pmu.EvLoadL3Miss] = 1
		}
	}
	if res.Prefetched > 0 {
		counts[pmu.EvL2Prefetch] = uint16(res.Prefetched)
	}
	m.PMU.RecordBatch(&counts, at)
	if res.Slice >= 0 && res.Slice < len(m.CBox) {
		m.CBox[res.Slice].Record(pmu.CBoLookup, at)
		if res.Level == 4 {
			m.CBox[res.Slice].Record(pmu.CBoMiss, at)
		}
	}
}

// store dispatches store-address and store-data µops and performs the
// write. Stores complete into the store buffer; the pipeline does not wait
// for the cache fill, matching write-allocate hardware.
func (m *Machine) store(addr uint32, size int, v uint64, addrReady, dataReady int64) (int64, error) {
	c := &m.core
	phys, ok := m.Mem.Translate(addr)
	if !ok {
		return 0, &Fault{RIP: c.rip, Reason: fmt.Sprintf("#PF: store to unmapped %#x", addr)}
	}
	res := m.Hier.Data(phys, true)
	if m.sink != nil {
		m.sink.Data(phys, true, false, res.Level)
	}
	_, staDone := m.dispatch(x86.PortsSTA, addrReady, 1, 1)
	_, stdDone := m.dispatch(x86.PortsSTD, dataReady, 1, 1)
	done := maxI64(staDone, stdDone)
	if done > c.lastStoreDone {
		c.lastStoreDone = done
	}
	c.stbuf[c.stbufPos] = storeEntry{addr: addr, size: uint8(size), done: done}
	c.stbufPos = (c.stbufPos + 1) % storeBufSize
	if c.stbufLen == 0 || uint64(addr) < c.stbufLo {
		c.stbufLo = uint64(addr)
	}
	if c.stbufLen == 0 || uint64(addr)+uint64(size) > c.stbufHi {
		c.stbufHi = uint64(addr) + uint64(size)
	}
	if c.stbufLen < storeBufSize {
		c.stbufLen++
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	if !m.Mem.Write(addr, buf[:size]) {
		return 0, &Fault{RIP: c.rip, Reason: "#PF: partial store"}
	}
	// Self-modifying code: a store into the installed code region drops
	// the pre-decoded program.
	m.noteCodeWrite(addr, size)
	at := c.retireCycle
	if c.feCycle > at {
		at = c.feCycle
	}
	m.PMU.Record(pmu.EvStoreRetired, at)
	if res.Slice >= 0 && res.Slice < len(m.CBox) {
		m.CBox[res.Slice].Record(pmu.CBoLookup, at)
		if res.Level == 4 {
			m.CBox[res.Slice].Record(pmu.CBoMiss, at)
		}
	}
	return done, nil
}
