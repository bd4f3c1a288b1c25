package nano

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
	"nanobench/internal/sim/mem"
)

// Virtual layout of the nanoBench regions inside the simulated machine.
const (
	// CodeBase is where generated benchmark functions are placed.
	CodeBase = 0x0010_0000
	CodeSize = 1 << 20

	// AuxBase holds the register save area, the scratch slots used by the
	// counter-reading code, and the counter value arrays.
	AuxBase = 0x0030_0000
	AuxSize = 64 << 10

	auxSaveGP   = AuxBase + 0x000 // 16 × 8 bytes
	auxSaveXMM  = AuxBase + 0x080 // 16 × 16 bytes
	auxScratch  = AuxBase + 0x200 // RAX/RCX/RDX spill in readPerfCtrs
	auxScratch2 = AuxBase + 0x240 // spill in pause/resume sequences
	auxM1       = AuxBase + 0x280 // first counter read
	auxM2       = AuxBase + 0x380 // second counter read
	auxNoMemOut = AuxBase + 0x480 // noMem result dump

	// AreaBase is the start of the five 1 MB memory areas the registers
	// R14, RDI, RSI, RBP, and RSP point into (Section III-G).
	AreaBase = 0x0100_0000
	AreaSize = 1 << 20

	// BigAreaBase is where the optional physically-contiguous region is
	// mapped (Section IV-D).
	BigAreaBase = 0x1000_0000
	// MaxBigArea bounds the mappable large region.
	MaxBigArea = 256 << 20
)

// R14DefaultArea returns the virtual base address register R14 points to
// by default.
func R14DefaultArea() uint32 { return AreaBase }

// maxReadSlots is the number of counter values one generated read sequence
// can record (fixed + programmable + MSR reads).
const maxReadSlots = 16

// noMemSlots is the number of registers available for counter accumulation
// in noMem mode (R8..R12).
const noMemSlots = 5

// Runner evaluates microbenchmarks on a simulated machine, in either user
// or kernel mode (Section III-D).
type Runner struct {
	M    *machine.Machine
	mode machine.Mode

	regions []region
	bigSize uint64
	cbox    int

	// lastCode is the code image most recently installed via WriteCode;
	// runVariant skips the install (and the machine's re-predecode) when
	// the regenerated image is byte-identical and the machine certifies
	// the installed program is still valid.
	lastCode []byte

	// seq holds the seq-replay fast path's verified-trace cache
	// (seqreplay.go); lazily created, keyed by image hash.
	seq *seqReplayState
}

type region struct {
	virt uint32
	phys uint64
	size uint64
}

// NewRunner prepares a machine for running microbenchmarks: it maps the
// code, auxiliary, and memory-area regions and, in user mode, sets CR4.PCE
// so RDPMC is usable.
func NewRunner(m *machine.Machine, mode machine.Mode) (*Runner, error) {
	r := &Runner{M: m, mode: mode}
	m.SetMode(mode)
	if mode == machine.User {
		m.SetCR4PCE(true)
	}
	if err := r.mapRegions(); err != nil {
		return nil, err
	}
	return r, nil
}

// Mode returns the runner's privilege mode.
func (r *Runner) Mode() machine.Mode { return r.mode }

func (r *Runner) mapRegions() error {
	alloc := func(virt uint32, size uint64) error {
		phys, err := r.M.Alloc.Kmalloc(size)
		if err != nil {
			return err
		}
		if err := r.M.Mem.Map(virt, phys, size); err != nil {
			return err
		}
		r.regions = append(r.regions, region{virt, phys, size})
		return nil
	}
	if err := alloc(CodeBase, CodeSize); err != nil {
		return err
	}
	if err := alloc(AuxBase, AuxSize); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if err := alloc(AreaBase+uint32(i)*AreaSize, AreaSize); err != nil {
			return err
		}
	}
	return nil
}

// AllocBigArea reserves a physically-contiguous region of the given size
// and maps it at BigAreaBase. On fragmentation it returns
// mem.ErrRebootRequired; RebootAndRemap recovers (at the cost of all cache
// and counter state).
func (r *Runner) AllocBigArea(size uint64) error {
	if size > MaxBigArea {
		return fmt.Errorf("nano: big area of %d bytes exceeds the %d limit", size, MaxBigArea)
	}
	size = (size + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	phys, err := r.M.Alloc.AllocContiguous(size)
	if err != nil {
		return err
	}
	if err := r.M.Mem.Map(BigAreaBase, phys, size); err != nil {
		return err
	}
	r.bigSize = size
	return nil
}

// BigAreaPhys translates a big-area offset to its physical address.
func (r *Runner) BigAreaPhys(off uint64) (uint64, bool) {
	if off >= r.bigSize {
		return 0, false
	}
	return r.M.Mem.Translate(BigAreaBase + uint32(off))
}

// BigAreaSize returns the currently mapped big-area size.
func (r *Runner) BigAreaSize() uint64 { return r.bigSize }

// RebootAndRemap performs the paper's remedy for failed contiguous
// allocations: reboot (pristine freelist), then re-map all regions.
func (r *Runner) RebootAndRemap() error {
	for _, reg := range r.regions {
		r.M.Mem.Unmap(reg.virt, reg.size)
	}
	if r.bigSize > 0 {
		r.M.Mem.Unmap(BigAreaBase, r.bigSize)
		r.bigSize = 0
	}
	r.regions = nil
	r.lastCode = nil // reboot re-maps the code region onto fresh frames
	if r.seq != nil {
		// Recorded traces carry physical addresses; remapping onto fresh
		// frames invalidates all of them.
		r.seq.entries = make(map[seqEntryKey]*seqTraceEntry)
		r.seq.dropMemo()
	}
	r.M.Reboot()
	return r.mapRegions()
}

// SetPrefetchersEnabled toggles the hardware prefetchers via MSR 0x1A4, as
// the cache analysis tools require (Section IV-A2). Kernel mode only.
func (r *Runner) SetPrefetchersEnabled(on bool) error {
	if r.mode != machine.Kernel {
		return errors.New("nano: prefetcher control requires the kernel-space version")
	}
	v := uint64(0xF)
	if on {
		v = 0
	}
	r.M.WriteMSR(machine.MSRPrefetchCtl, v)
	return nil
}

// Run evaluates one microbenchmark configuration and returns the
// aggregated per-instruction counter values.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.RunContext(context.Background(), cfg)
}

// RunContext is Run bounded by a context: cancellation or a deadline is
// checked between individual benchmark runs and, inside a run, by the
// machine every 2^16 retired instructions (machine.RunContext), so even a
// long measurement series (large NMeasurements, many counter groups) or a
// runaway benchmark returns promptly with the context's error.
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.applyDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.validate(&cfg); err != nil {
		return nil, err
	}

	groups, err := r.buildGroups(cfg)
	if err != nil {
		return nil, err
	}

	res := newResult()
	for gi, g := range groups {
		if err := r.programCounters(g); err != nil {
			return nil, err
		}
		vals, samples, err := r.runGroup(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		for i, rd := range g.reads {
			if rd.fixed && gi > 0 {
				continue // fixed counters are reported from the first group
			}
			sm := samples[i]
			if cfg.DropSamples {
				sm = nil // aggregated value only (Config.DropSamples)
			}
			res.addMetric(Metric{
				Name:    rd.name,
				Event:   rd.spec,
				Fixed:   rd.fixed,
				Value:   vals[i],
				Samples: sm,
			})
		}
	}
	return res, nil
}

// counterGroup is one counter configuration: at most NumProgCounters core
// events measured together, plus the fixed counters and any MSR/uncore
// reads.
type counterGroup struct {
	core  []perfcfg.EventSpec
	reads []ctrRead
}

type ctrRead struct {
	name    string
	fixed   bool
	isMSR   bool
	index   uint32 // RDPMC index, or MSR address when isMSR
	progIdx int    // programmable counter number (core events)
	// spec is the event specification behind the read; the zero value for
	// the fixed counters.
	spec perfcfg.EventSpec
}

func (r *Runner) validate(cfg *Config) error {
	if len(cfg.Code) == 0 && len(cfg.CodeInit) == 0 {
		return errors.New("nano: empty benchmark")
	}
	if cfg.UnrollCount < 1 {
		return errors.New("nano: unroll count must be at least 1")
	}
	if cfg.LoopCount < 0 || cfg.NMeasurements < 1 || cfg.WarmUpCount < 0 {
		return errors.New("nano: invalid run counts")
	}
	// Reject unroll counts that cannot fit before generating the buffer:
	// the measurement run alone holds UnrollCount copies of Code, so a
	// hostile unroll_count would otherwise allocate gigabytes here (and
	// on the server, from a 60-byte request) only to fail the post-
	// generation size check.
	if len(cfg.Code) > 0 && cfg.UnrollCount > CodeSize/len(cfg.Code) {
		return fmt.Errorf("nano: %d copies of a %d-byte benchmark cannot fit the %d-byte code area",
			cfg.UnrollCount, len(cfg.Code), CodeSize)
	}
	hasMarkers := containsMarker(cfg.Code) || containsMarker(cfg.CodeInit)
	if hasMarkers && r.mode != machine.Kernel {
		return errors.New("nano: pause/resume magic bytes require the kernel-space version")
	}
	for _, ev := range cfg.Events {
		if ev.Kind != perfcfg.Core && r.mode != machine.Kernel {
			return fmt.Errorf("nano: event %q requires the kernel-space version", ev.Name)
		}
	}
	if cfg.UseBigArea && r.bigSize == 0 {
		return errors.New("nano: UseBigArea without AllocBigArea")
	}
	return nil
}

// buildGroups splits events into counter configurations.
func (r *Runner) buildGroups(cfg Config) ([]counterGroup, error) {
	nProg := len(r.M.PMU.Prog)
	perGroup := nProg
	if cfg.NoMem {
		// Three slots go to the fixed counters; the rest hold core events.
		perGroup = noMemSlots - 3
		if perGroup < 1 {
			return nil, errors.New("nano: too few registers for noMem mode")
		}
		if perGroup > nProg {
			perGroup = nProg
		}
	}

	var core, other []perfcfg.EventSpec
	for _, ev := range cfg.Events {
		if ev.Kind == perfcfg.Core {
			core = append(core, ev)
		} else {
			other = append(other, ev)
		}
	}

	var groups []counterGroup
	for len(core) > 0 {
		n := perGroup
		if n > len(core) {
			n = len(core)
		}
		groups = append(groups, counterGroup{core: core[:n]})
		core = core[n:]
	}
	if len(groups) == 0 {
		groups = append(groups, counterGroup{})
	}
	// MSR and C-Box reads join the last group if it has room in the read
	// sequence; otherwise they get their own group.
	if len(other) > 0 {
		last := &groups[len(groups)-1]
		if cfg.NoMem && len(last.core)+3+len(other) > noMemSlots {
			groups = append(groups, counterGroup{})
			last = &groups[len(groups)-1]
		}
		for _, ev := range other {
			rd, err := r.otherRead(ev)
			if err != nil {
				return nil, err
			}
			last.reads = append(last.reads, rd)
		}
	}

	// Build the read sequences: fixed counters, then the group's core
	// events, then the already-appended MSR reads.
	for i := range groups {
		g := &groups[i]
		msrReads := g.reads
		g.reads = []ctrRead{
			{name: "Instructions retired", fixed: true, index: 1<<30 | 0},
			{name: "Core cycles", fixed: true, index: 1<<30 | 1},
			{name: "Reference cycles", fixed: true, index: 1<<30 | 2},
		}
		for ci, ev := range g.core {
			g.reads = append(g.reads, ctrRead{name: ev.Name, index: uint32(ci), progIdx: ci, spec: ev})
		}
		g.reads = append(g.reads, msrReads...)
		if len(g.reads) > maxReadSlots {
			return nil, fmt.Errorf("nano: %d counter reads exceed the %d slots", len(g.reads), maxReadSlots)
		}
		if cfg.NoMem && len(g.reads) > noMemSlots {
			return nil, fmt.Errorf("nano: %d counter reads exceed the %d noMem registers", len(g.reads), noMemSlots)
		}
	}
	return groups, nil
}

func (r *Runner) otherRead(ev perfcfg.EventSpec) (ctrRead, error) {
	switch ev.Kind {
	case perfcfg.MSR:
		return ctrRead{name: ev.Name, isMSR: true, index: ev.Addr, spec: ev}, nil
	case perfcfg.CBo:
		// C-Box events are exposed per box; the configured box is chosen
		// with SelectCBox (cacheSeq uses this). Default box 0.
		off := uint32(6)
		if ev.CBoEv == "MISS" {
			off = 7
		}
		return ctrRead{name: ev.Name, isMSR: true, spec: ev,
			index: machine.MSRCBoxBase + uint32(r.cbox)*machine.MSRCBoxStride + off}, nil
	}
	return ctrRead{}, fmt.Errorf("nano: unsupported event kind")
}

// programCounters writes the MSRs that select the group's events.
func (r *Runner) programCounters(g counterGroup) error {
	m := r.M
	var progMask uint64
	for i, ev := range g.core {
		sel := uint64(ev.EvtSel) | uint64(ev.Umask)<<8 | machine.PerfEvtSelEN
		if !m.WriteMSR(machine.MSRPerfEvtSel0+uint32(i), sel) {
			return fmt.Errorf("nano: cannot program counter %d", i)
		}
		progMask |= 1 << i
	}
	m.WriteMSR(machine.MSRFixedCtrCtrl, 0x333)
	m.WriteMSR(machine.MSRPerfGlobalCtl, 0x7<<32|progMask)
	return nil
}

// globalCtlValue returns the IA32_PERF_GLOBAL_CTRL value for a group (used
// by the resume-counting sequence).
func globalCtlValue(g counterGroup) uint64 {
	var progMask uint64
	for i := range g.core {
		progMask |= 1 << i
	}
	return 0x7<<32 | progMask
}

// runGroup runs both unroll variants for one counter group and returns the
// per-read aggregated, overhead-subtracted, per-instruction values plus
// the raw per-run samples (run k of one variant paired with run k of the
// other, subtracted and normalized the same way).
func (r *Runner) runGroup(ctx context.Context, cfg Config, g counterGroup) ([]float64, [][]float64, error) {
	unrollA := cfg.UnrollCount
	unrollB := 2 * cfg.UnrollCount
	if cfg.BasicMode {
		unrollB = 0
	}

	aggA, runsA, err := r.runVariant(ctx, cfg, g, unrollA)
	if err != nil {
		return nil, nil, err
	}
	aggB, runsB, err := r.runVariant(ctx, cfg, g, unrollB)
	if err != nil {
		return nil, nil, err
	}

	denom := float64(max(1, cfg.LoopCount) * cfg.UnrollCount)
	out := make([]float64, len(g.reads))
	samples := make([][]float64, len(g.reads))
	for i := range g.reads {
		if cfg.BasicMode {
			out[i] = (aggA[i] - aggB[i]) / denom
		} else {
			out[i] = (aggB[i] - aggA[i]) / denom
		}
		samples[i] = make([]float64, len(runsA[i]))
		for k := range runsA[i] {
			if cfg.BasicMode {
				samples[i][k] = (runsA[i][k] - runsB[i][k]) / denom
			} else {
				samples[i][k] = (runsB[i][k] - runsA[i][k]) / denom
			}
		}
	}
	return out, samples, nil
}

// runVariant generates code with the given localUnrollCount and runs the
// warm-up + measurement series, returning the aggregate of each read slot
// alongside the per-run raw values it was computed from.
func (r *Runner) runVariant(ctx context.Context, cfg Config, g counterGroup, localUnroll int) ([]float64, [][]float64, error) {
	code, err := r.generate(cfg, g, localUnroll)
	if err != nil {
		return nil, nil, err
	}
	if len(code) > CodeSize {
		return nil, nil, fmt.Errorf("nano: generated code (%d bytes) exceeds the code area", len(code))
	}
	// Install the code unless the identical image is already installed
	// with its pre-decoded program intact (a write into the code region —
	// including by the benchmark itself — invalidates the program, so a
	// valid program proves the bytes are unmodified).
	if !(r.M.ProgramValid(CodeBase, len(code)) && bytes.Equal(code, r.lastCode)) {
		if err := r.M.WriteCode(CodeBase, code); err != nil {
			return nil, nil, err
		}
		r.lastCode = append(r.lastCode[:0], code...)
	}

	nReads := len(g.reads)
	samples := make([][]float64, nReads)
	for i := -cfg.WarmUpCount; i < cfg.NMeasurements; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Trim counter histories between runs; enables survive.
		r.M.PMU.ResetAll(r.M.Cycle())
		if _, err := r.M.RunContext(ctx, CodeBase); err != nil {
			return nil, nil, err
		}
		if i < 0 {
			continue
		}
		for s := 0; s < nReads; s++ {
			var delta uint64
			if cfg.NoMem {
				v, _ := r.M.Mem.Read64(auxNoMemOut + uint32(8*s))
				delta = v
			} else {
				m1, _ := r.M.Mem.Read64(auxM1 + uint32(8*s))
				m2, _ := r.M.Mem.Read64(auxM2 + uint32(8*s))
				delta = m2 - m1
			}
			samples[s] = append(samples[s], float64(delta))
		}
	}

	out := make([]float64, nReads)
	for s := range samples {
		out[s] = aggregate(samples[s], cfg.Aggregate)
	}
	return out, samples, nil
}

// cbox is the C-Box whose counters CBO.* events read.
func (r *Runner) SelectCBox(box int) error {
	if box < 0 || box >= len(r.M.CBox) {
		return fmt.Errorf("nano: C-Box %d out of range (%d boxes)", box, len(r.M.CBox))
	}
	r.cbox = box
	return nil
}
