// Package machine assembles the simulated x86 system: physical memory and
// paging, the cache hierarchy, the PMU, MSRs, and an out-of-order core
// timing model that executes real machine-code bytes produced by the
// assembler in internal/x86.
//
// The timing model is the substrate substitution for real hardware (see
// docs/ARCHITECTURE.md): performance counters are sampled at the cycle
// the reading µop executes, so measurement code exhibits the same
// serialization hazards, overheads, and interrupt noise the nanoBench
// paper addresses.
package machine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"nanobench/internal/sim/cache"
	"nanobench/internal/sim/mem"
	"nanobench/internal/sim/pmu"
	"nanobench/internal/x86"
)

// Mode is the privilege mode code runs in.
type Mode int

// Privilege modes.
const (
	User Mode = iota
	Kernel
)

// String renders the mode by its wire-format name ("user" or "kernel"),
// the form ParseMode accepts.
func (m Mode) String() string {
	switch m {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a privilege-mode name ("user" or "kernel",
// case-insensitive).
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "user":
		return User, nil
	case "kernel":
		return Kernel, nil
	}
	return User, fmt.Errorf("machine: unknown mode %q (want user or kernel)", s)
}

// Spec configures a simulated machine.
type Spec struct {
	Name  string
	Cache cache.Config
	// NumProgCounters is the number of programmable performance counters
	// (2..8 on Intel, 6 on AMD family 17h).
	NumProgCounters int
	// RefRatio is the reference-clock to core-clock ratio (<1 when the
	// core runs above base frequency).
	RefRatio float64
	// PhysMem is the physical memory size.
	PhysMem uint64
	// EventTable maps perfevtsel encodings (event | umask<<8) to events.
	EventTable map[uint16]pmu.Event
	// InterruptInterval is the mean cycle distance between timer
	// interrupts in user mode (0 disables them).
	InterruptInterval int64
	// Seed for all machine-internal pseudo-randomness.
	Seed int64
	// MispredictPenalty is the front-end bubble after a mispredicted
	// branch.
	MispredictPenalty int
}

// Virtual memory layout of the machine-owned regions. Everything lives
// below 2 GB so absolute disp32 addressing reaches it.
const (
	// StackBase is a small machine-provided stack so generated code can
	// RET (and use CALL) before it switches to its own memory areas.
	StackBase = 0x0008_0000
	StackSize = 0x4000
	// SentinelRIP is the return address the machine pushes before
	// starting a run; executing RET with this target ends the run.
	SentinelRIP = 0x7FFF_FFF0
)

// Machine is one simulated x86 system with a single active core.
type Machine struct {
	Spec  Spec
	Mem   *mem.Memory
	Alloc *mem.Allocator
	Hier  *cache.Hierarchy
	PMU   *pmu.PMU
	CBox  []*pmu.CBox

	rng  *rand.Rand
	mode Mode
	ifEn bool // interrupt flag
	// cr4pce mirrors CR4.PCE: RDPMC allowed in user mode.
	cr4pce bool

	msr map[uint32]uint64 // raw storage for MSRs without special handling

	core coreState

	// prog is the pre-decoded form of the code image installed by the most
	// recent WriteCode; decVersion/decCache back the slow path for code
	// executed outside it. Both are invalidated when code memory is
	// rewritten.
	prog       program
	decVersion uint64
	decCache   map[uint32]*decEntry
	// decMemo caches decode results by code-byte content (see decodeRaw);
	// it survives WriteCode because changed bytes change the key.
	decMemo map[decKey]x86.DecodedInstr
	// lineShift is log2 of the L1I line size, folded into every decoded
	// entry's line span at predecode time.
	lineShift uint8
	// noChain makes Run execute through step() — resolving every
	// instruction from c.rip — instead of the chained dispatcher; noTrace
	// keeps the chained dispatcher but disables block (trace) execution.
	// Together they form the engine-selection seam (SetEngine/Engine in
	// trace.go) the differential property tests force each tier through.
	noChain bool
	noTrace bool

	// Trace-mode scratch: the per-block PMU event buffers, the replay-key
	// buffer, and the entry port-use snapshot (see trace.go).
	bev     blockEvents
	keyBuf  []int64
	puEntry [x86.NumPorts]int64

	// MaxInstructions bounds one Run (a runaway-loop backstop).
	MaxInstructions uint64

	// sink, when non-nil, records every cache-hierarchy operation and
	// counter read the executing code performs (see cache.TraceSink). The
	// nano seq-replay fast path installs it around real runs to learn an
	// image's hierarchy trace; nil costs one predictable branch per site.
	sink *cache.TraceSink

	nextIrq int64
	// irqScratch is a physical region the fake interrupt handler touches
	// to perturb the caches.
	irqScratch uint64
}

type decEntry struct {
	version uint64
	d       x86.DecodedInstr
}

// New builds a machine from the spec. The low megabyte of physical memory
// is reserved for the machine itself (interrupt-handler working set). New
// allocates the machine's parts and then calls Reset, which alone defines
// the fresh state.
func New(spec Spec) (*Machine, error) {
	if spec.NumProgCounters <= 0 {
		return nil, fmt.Errorf("machine: need at least one programmable counter")
	}
	if spec.RefRatio <= 0 || spec.RefRatio > 1.5 {
		return nil, fmt.Errorf("machine: implausible RefRatio %v", spec.RefRatio)
	}
	if spec.MispredictPenalty == 0 {
		spec.MispredictPenalty = 16
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	memory, err := mem.NewMemory(spec.PhysMem, 1<<31)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(spec.Cache, spec.Seed)
	if err != nil {
		return nil, err
	}
	lineSz := hier.LineSize()
	lineShift := uint8(bits.TrailingZeros(uint(lineSz)))
	if lineSz <= 0 || 1<<lineShift != lineSz {
		return nil, fmt.Errorf("machine: L1I line size %d is not a power of two", lineSz)
	}
	m := &Machine{
		Spec:       spec,
		Mem:        memory,
		Alloc:      mem.NewAllocator(spec.PhysMem, 1<<20, rng),
		Hier:       hier,
		rng:        rng,
		msr:        map[uint32]uint64{},
		decCache:   map[uint32]*decEntry{},
		decMemo:    map[decKey]x86.DecodedInstr{},
		lineShift:  lineShift,
		irqScratch: 0x40000, // inside the reserved low megabyte
	}
	if err := m.Reset(spec.Seed); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset restores exactly the state New builds for the machine's spec with
// the given seed, whatever the machine ran before, so a scheduler can
// reuse one machine across evaluations. Everything is re-initialized in
// place; only the content-keyed decode memo survives, because decoding is
// a pure function of the code bytes (the trace-mode scratch buffers hold
// nothing between blocks). The order of the RNG draws matches a fresh
// build.
func (m *Machine) Reset(seed int64) error {
	m.Spec.Seed = seed
	// Reseed in place: the allocator draws from the same *rand.Rand.
	m.rng.Seed(seed)
	m.Mem.Reset()
	m.Alloc.Reboot()
	m.Hier.Reseed(seed)
	m.PMU = pmu.New(m.Spec.NumProgCounters, m.Spec.RefRatio)
	m.CBox = m.CBox[:0]
	for i := 0; i < m.Spec.Cache.L3Slices; i++ {
		m.CBox = append(m.CBox, pmu.NewCBox())
	}
	clear(m.msr)
	m.core = coreState{}
	m.prog.drop()
	m.decVersion = 0
	clear(m.decCache)
	m.mode, m.ifEn, m.cr4pce = User, false, false
	m.SetEngine(EngineTrace)
	m.MaxInstructions = 64 << 20
	m.sink = nil
	// Machine-owned stack: map it at identical phys addresses inside the
	// reserved region.
	if err := m.Mem.Map(StackBase, 0x10000, StackSize); err != nil {
		return err
	}
	m.scheduleIrq()
	return nil
}

// SetMode selects the privilege mode subsequent runs execute in. Kernel
// mode starts with interrupts disabled (the kernel-space nanoBench
// disables them around measurements); user mode always has them enabled.
func (m *Machine) SetMode(mode Mode) {
	m.mode = mode
	m.ifEn = mode == User
}

// Mode returns the current privilege mode.
func (m *Machine) Mode() Mode { return m.mode }

// SetCR4PCE controls whether RDPMC is allowed in user mode.
func (m *Machine) SetCR4PCE(on bool) { m.cr4pce = on }

// Cycle returns the current core cycle.
func (m *Machine) Cycle() int64 { return m.core.cycleFloor() }

// Rand exposes the machine's deterministic random source (tests and
// tooling use it so everything derives from one seed).
func (m *Machine) Rand() *rand.Rand { return m.rng }

// SetTraceSink installs (or, with nil, removes) a hierarchy-trace
// recorder: while installed, every cache access, flush, and counter read
// of executed code is appended to it.
func (m *Machine) SetTraceSink(s *cache.TraceSink) { m.sink = s }

// FetchLineMemo returns the core's single-line fetch memo: the virtual
// line address of the most recent instruction fetch, if any. The memo
// persists across runs and suppresses a refetch of that one line, so a
// recorded hierarchy trace is only valid for replay when the memo
// condition at run entry matches the recording's.
func (m *Machine) FetchLineMemo() (uint64, bool) {
	return m.core.fetchLine, m.core.hasFetchLine
}

// SetFetchLineMemo overwrites the fetch memo; trace replay uses it to
// leave the core exactly as the recorded run would have (memo = last
// code line the run fetched).
func (m *Machine) SetFetchLineMemo(line uint64) {
	m.core.fetchLine = line
	m.core.hasFetchLine = true
}

// WriteCode copies machine code into virtual memory and installs it as
// the machine's pre-decoded program: the image is decoded eagerly, front
// to back, into a flat array of fused-µop entries chained by successor
// links (see program), so the run loop dispatches block to block without
// re-resolving addresses. Previously cached decodes are invalidated.
func (m *Machine) WriteCode(virt uint32, code []byte) error {
	if !m.Mem.Write(virt, code) {
		return fmt.Errorf("machine: code write to unmapped address %#x", virt)
	}
	m.prog.install(virt, len(code))
	m.decVersion++
	m.predecodeImage()
	return nil
}

// WriteData writes data bytes to virtual memory. A write that lands in
// the installed code region invalidates the pre-decoded program so the
// modified bytes are re-decoded.
func (m *Machine) WriteData(virt uint32, data []byte) error {
	if !m.Mem.Write(virt, data) {
		return fmt.Errorf("machine: data write to unmapped address %#x", virt)
	}
	m.noteCodeWrite(virt, len(data))
	return nil
}

// Reboot resets the allocator freelist (the paper's remedy for failed
// physically-contiguous allocations), flushes the caches, and clears
// counters. Mappings of machine-owned regions survive, but the installed
// code does not (regions are re-mapped to fresh frames), so the
// pre-decoded program is dropped.
func (m *Machine) Reboot() {
	m.Alloc.Reboot()
	m.Hier.Flush()
	m.PMU.ResetAll(m.core.cycleFloor())
	for _, b := range m.CBox {
		b.ResetAll()
	}
	m.prog.drop()
	m.decVersion++
}

// ProgramValid reports whether the pre-decoded program installed by the
// last WriteCode still covers exactly size bytes at base. Because every
// write into the code region drops the program, a valid program also
// certifies that the installed bytes are unmodified.
func (m *Machine) ProgramValid(base uint32, size int) bool {
	return m.prog.size > 0 && m.prog.base == base && m.prog.size == uint32(size)
}

// scheduleIrq draws the next timer-interrupt cycle.
func (m *Machine) scheduleIrq() {
	if m.Spec.InterruptInterval <= 0 {
		m.nextIrq = 1 << 62
		return
	}
	iv := m.Spec.InterruptInterval
	jitter := m.rng.Int63n(iv) - iv/2
	m.nextIrq = m.core.cycleFloor() + iv + jitter
}

// Fault is a simulated CPU exception.
type Fault struct {
	RIP    uint32
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("machine: fault at %#x: %s", f.RIP, f.Reason)
}

// RunResult summarizes one Run.
type RunResult struct {
	Instructions uint64
	Cycles       int64
	Interrupts   int
}

// ctxPollInstrs is how many retired instructions RunContext lets pass
// between two looks at its context: rare enough to cost nothing per
// instruction, frequent enough that a cancelled run stops within
// milliseconds rather than at the instruction budget.
const ctxPollInstrs = 1 << 16

// Run executes code at entry until the top-level RET (or fault/instruction
// budget). The machine pushes a sentinel return address onto its private
// stack; generated nanoBench code saves and restores all registers, so RSP
// is back on this stack when the final RET executes.
func (m *Machine) Run(entry uint32) (RunResult, error) {
	return m.RunContext(context.Background(), entry)
}

// RunContext is Run bounded by a context: every ctxPollInstrs retired
// instructions the run checks ctx and, once it is done, stops with the
// context's error. The machine is then mid-run, as after a fault; the next
// Run starts from the entry again.
func (m *Machine) RunContext(ctx context.Context, entry uint32) (RunResult, error) {
	c := &m.core
	startInstr := c.instructions
	nextPoll := uint64(math.MaxUint64) // a context that is never done is never polled
	if ctx.Done() != nil {
		nextPoll = startInstr + ctxPollInstrs
	}
	// Runs do not overlap: the driver work between runs (configuring
	// counters, reading results) serializes the pipeline.
	c.feCycle = c.cycleFloor()
	c.feSlots = 0
	c.barrier = maxI64(c.barrier, c.feCycle)
	startCycle := c.cycleFloor()
	irqs := 0
	// Settle the uncore event tails: any counter read this run samples at
	// a dispatch cycle at or above the current front-end cycle.
	for _, b := range m.CBox {
		b.Advance(c.feCycle)
	}

	// Set up stack with the sentinel return address.
	stackTop := uint32(StackBase + StackSize - 64)
	m.Mem.Write64(stackTop, SentinelRIP)
	c.regs[x86.RSP] = uint64(stackTop)
	c.regReady[x86.RSP] = c.feCycle
	c.rip = entry

	// The dispatch loop is chained: the current instruction's program
	// entry index is carried between iterations and the next index comes
	// from the entry's successor links (fall for straight-line/not-taken,
	// tgt for the pre-resolved branch target), so the steady state runs
	// basic blocks in a tight loop and jumps block to block without
	// re-resolving RIPs. idx < 0 means "resolve c.rip from scratch" —
	// the entry path, dynamic targets (RET), code outside the program,
	// and everything after an invalidation. Links discovered at run time
	// (lazily decoded entries) are resolved once and cached via prevIdx.
	ver := m.decVersion
	idx := int32(-1)
	prevIdx := int32(-1) // entry whose missing link the next resolution fills
	prevTaken := false   // which link of prevIdx: tgt (true) or fall
	for {
		if c.instructions-startInstr > m.MaxInstructions {
			return RunResult{}, &Fault{RIP: c.rip, Reason: "instruction budget exceeded (runaway loop?)"}
		}
		if c.instructions >= nextPoll {
			if err := ctx.Err(); err != nil {
				return RunResult{}, err
			}
			nextPoll = c.instructions + ctxPollInstrs
		}
		// Timer interrupts (user mode with IF set).
		if m.ifEn && m.mode == User && c.feCycle >= m.nextIrq {
			m.deliverInterrupt()
			irqs++
		}
		if m.noChain {
			stop, err := m.step()
			if err != nil {
				return RunResult{}, err
			}
			if stop {
				break
			}
			continue
		}
		if ver != m.decVersion { // program dropped (self-modifying code)
			ver = m.decVersion
			idx, prevIdx = -1, -1
		}
		var d *x86.DecodedInstr
		if idx < 0 {
			var err error
			idx, err = m.progIndexAt(c.rip)
			if err != nil {
				return RunResult{}, err
			}
			if idx >= 0 && prevIdx >= 0 {
				if prevTaken {
					m.prog.links[prevIdx].tgt = idx
				} else {
					m.prog.links[prevIdx].fall = idx
				}
			}
			prevIdx = -1
			if idx < 0 {
				if d, err = m.decodeSlow(c.rip); err != nil {
					return RunResult{}, err
				}
			}
		}
		if idx >= 0 {
			d = &m.prog.instrs[idx]
			// Trace tier: a fused entry heading a block executes the whole
			// block in one pass. Blocks are skipped — never split — when
			// user-mode timer interrupts could fire (their delivery window
			// is per instruction) or when the block could cross the
			// instruction budget (the per-instruction path faults at
			// exactly the chained tier's point).
			if !m.noTrace && d.Fast != x86.FastNone &&
				!(m.ifEn && m.mode == User && m.Spec.InterruptInterval > 0) {
				if bi := m.prog.blockOf[idx]; bi != blockNoTrace {
					if bi < 0 {
						bi = m.buildBlock(idx)
					}
					if bi >= 0 {
						b := &m.prog.blocks[bi]
						if c.instructions-startInstr+uint64(len(b.steps)) <= m.MaxInstructions {
							if err := m.execBlock(b); err != nil {
								return RunResult{}, err
							}
							if nk := m.prog.links[b.lastIdx].fall; nk >= 0 {
								idx = nk
							} else {
								prevIdx, prevTaken = b.lastIdx, false
								idx = -1
							}
							continue
						}
					}
				}
			}
		}
		stop, err := m.execOne(d)
		if err != nil {
			return RunResult{}, err
		}
		if stop {
			break
		}
		if idx >= 0 && ver == m.decVersion {
			lk := m.prog.links[idx]
			switch {
			case c.rip == d.Next:
				if lk.fall >= 0 {
					idx = lk.fall
					continue
				}
				prevIdx, prevTaken = idx, false
			case d.TargetOK && c.rip == d.Target:
				if lk.tgt >= 0 {
					idx = lk.tgt
					continue
				}
				prevIdx, prevTaken = idx, true
			}
		} else {
			prevIdx = -1
		}
		idx = -1
	}
	return RunResult{
		Instructions: c.instructions - startInstr,
		Cycles:       c.cycleFloor() - startCycle,
		Interrupts:   irqs,
	}, nil
}

// deliverInterrupt models a timer interrupt: the handler runs for a few
// thousand cycles with the counters still active, retires instructions,
// and displaces cache lines.
func (m *Machine) deliverInterrupt() {
	c := &m.core
	cost := int64(2000 + m.rng.Int63n(6000))
	instrs := cost / 3
	start := c.feCycle
	// Retired instructions spread across the handler's execution.
	step := cost / maxI64(instrs, 1)
	if step == 0 {
		step = 1
	}
	for t := int64(0); t < instrs; t++ {
		m.PMU.Record(pmu.EvInstRetired, start+t*step)
	}
	// The handler touches a working set, evicting user lines.
	lines := 16 + m.rng.Intn(48)
	for i := 0; i < lines; i++ {
		addr := m.irqScratch + uint64(m.rng.Intn(512))*64
		m.Hier.Data(addr, i%4 == 0)
	}
	c.feCycle = start + cost
	c.barrier = maxI64(c.barrier, c.feCycle)
	c.lastCompletion = maxI64(c.lastCompletion, c.feCycle)
	c.retireCycle = maxI64(c.retireCycle, c.feCycle)
	m.scheduleIrq()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
