// Package cachetools implements the cache-analysis tools of case study II
// (Section VI): cacheSeq, which measures the hits and misses an access
// sequence generates in a chosen cache set; replacement-policy inference by
// comparing measurements against simulated candidate policies; age graphs
// (Figure 1); permutation-policy verification; and detection of the
// dedicated leader sets of adaptive (set-dueling) caches.
package cachetools

import (
	"context"
	"fmt"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
	"nanobench/internal/x86"
)

// Level selects the cache level a tool operates on.
type Level int

// Cache levels.
const (
	L1 Level = 1
	L2 Level = 2
	L3 Level = 3
)

func (l Level) String() string {
	if l < L1 || l > L3 {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return [...]string{L1: "L1", L2: "L2", L3: "L3"}[l]
}

// Tool runs cache microbenchmarks through the kernel-space nanoBench
// runner. It owns a large physically-contiguous memory area from which it
// draws same-set blocks, and it disables the hardware prefetchers
// (Section IV-A2).
type Tool struct {
	R *nano.Runner

	// Workers bounds the parallelism of shardable campaigns (currently
	// AgeGraphFor): independent (block, fresh-count) groups are
	// distributed over this tool and at most Workers-1 siblings. 0 or 1
	// runs on this tool alone. Because every group restreams the
	// simulated hierarchy to a group-derived RNG stream first, results
	// are byte-identical at any worker count.
	Workers int
	// NewSibling builds an independent tool on its own machine with the
	// same specification and seed; without it, campaigns run on this
	// tool alone whatever Workers says.
	NewSibling func() (*Tool, error)

	// blockCache memoizes block addresses per (level, slice, set).
	blockCache map[blockKey][]uint32
	// evictCodeCache memoizes the encoded eviction-load block per target.
	evictCodeCache map[evictKey][]byte
	// sigSuite/sigCache memoize the per-associativity probe suite and each
	// candidate policy's simulated hit-count signature over it (infer.go).
	sigSuite map[int][][]int
	sigCache map[sigKey]string
}

type blockKey struct {
	level Level
	slice int
	set   int
}

type evictKey struct {
	level Level
	phys  uint64
}

// DefaultBigArea is the physically-contiguous region the tool reserves; it
// bounds how many same-set blocks are available (the Figure 1 age graphs
// need >200 blocks in one L3 set and slice).
const DefaultBigArea = 128 << 20

// New prepares a cache-analysis tool on the given machine. The runner must
// be (and is checked to be) in kernel mode: cacheSeq needs WBINVD, the
// pause/resume magic bytes, and uncore counters.
func New(r *nano.Runner) (*Tool, error) {
	if r.Mode() != machine.Kernel {
		return nil, fmt.Errorf("cachetools: kernel-space runner required")
	}
	if r.BigAreaSize() == 0 {
		if err := r.AllocBigArea(DefaultBigArea); err != nil {
			return nil, err
		}
	}
	if err := r.SetPrefetchersEnabled(false); err != nil {
		return nil, err
	}
	return &Tool{
		R:              r,
		blockCache:     map[blockKey][]uint32{},
		evictCodeCache: map[evictKey][]byte{},
		sigSuite:       map[int][][]int{},
		sigCache:       map[sigKey]string{},
	}, nil
}

// geom returns the cache geometry for a level.
func (t *Tool) geom(level Level) (sets, assoc int) {
	h := t.R.M.Hier
	switch level {
	case L1:
		return h.L1D.Geom.Sets(), h.L1D.Geom.Assoc
	case L2:
		return h.L2.Geom.Sets(), h.L2.Geom.Assoc
	default:
		return h.L3[0].Geom.Sets(), h.L3[0].Geom.Assoc
	}
}

// Assoc returns the associativity of a level.
func (t *Tool) Assoc(level Level) int {
	_, a := t.geom(level)
	return a
}

// Sets returns the number of sets (per slice for L3) of a level.
func (t *Tool) Sets(level Level) int {
	s, _ := t.geom(level)
	return s
}

// Slices returns the number of L3 slices.
func (t *Tool) Slices() int { return len(t.R.M.Hier.L3) }

// setOf returns the set index of a physical address at the given level.
func (t *Tool) setOf(level Level, phys uint64) int {
	h := t.R.M.Hier
	switch level {
	case L1:
		return h.L1D.SetIndex(phys)
	case L2:
		return h.L2.SetIndex(phys)
	default:
		return h.L3[0].SetIndex(phys)
	}
}

// Blocks returns n distinct virtual line addresses inside the big area
// that map to the given set (and, for L3, slice).
func (t *Tool) Blocks(level Level, slice, set, n int) ([]uint32, error) {
	key := blockKey{level, slice, set}
	have := t.blockCache[key]
	if len(have) >= n {
		return have[:n], nil
	}
	h := t.R.M.Hier
	size := t.R.BigAreaSize()
	base, ok := t.R.BigAreaPhys(0)
	if !ok {
		return nil, fmt.Errorf("cachetools: big area not mapped")
	}
	// Lines of one set recur at a fixed stride (set counts are powers of
	// two), so only every sets-th line is a candidate; the slice hash is
	// the only per-candidate filter left for L3.
	sets, _ := t.geom(level)
	stride := uint64(sets) * 64
	start := uint64(0)
	for ; start < stride && start < size; start += 64 {
		if t.setOf(level, base+start) == set {
			break
		}
	}
	var out []uint32
	for off := start; off < size && len(out) < n; off += stride {
		phys := base + off
		if t.setOf(level, phys) != set {
			continue
		}
		if level == L3 && h.Slice(phys) != slice {
			continue
		}
		out = append(out, nano.BigAreaBase+uint32(off))
	}
	if len(out) < n {
		return nil, fmt.Errorf("cachetools: only %d of %d blocks available for %s set %d slice %d (grow the big area)",
			len(out), n, level, set, slice)
	}
	t.blockCache[key] = out
	return out, nil
}

// evictAddrs returns the virtual addresses of the lines that evict the
// block at phys from the levels above the target level:
//
//	L2 target: lines in the same L1 set but a different L2 set
//	L3 target: lines in the same L2 set (hence same L1 set) but a
//	           different L3 set
//
// These accesses are inserted, with counting paused, between consecutive
// same-set accesses so that every measured access actually reaches the
// target level (Section VI-C).
func (t *Tool) evictAddrs(level Level, physTarget uint64) ([]uint32, error) {
	h := t.R.M.Hier
	var want int
	match := func(p uint64) bool { return false }
	switch level {
	case L2:
		want = 2 * h.L1D.Geom.Assoc
		match = func(p uint64) bool {
			return h.L1D.SetIndex(p) == h.L1D.SetIndex(physTarget) &&
				h.L2.SetIndex(p) != h.L2.SetIndex(physTarget)
		}
	case L3:
		// The same lines must displace the target from both the L1 and
		// the L2 (they share the L2 set, hence the L1 set). They must not
		// land in the measured L3 set of the measured slice — a different
		// set or a different slice both qualify (on models whose per-slice
		// L3 has exactly the L2's index bits, only the slice can differ).
		want = 2 * h.L1D.Geom.Assoc
		if w := 2 * h.L2.Geom.Assoc; w > want {
			want = w
		}
		tSet := h.L3[0].SetIndex(physTarget)
		tSlice := h.Slice(physTarget)
		match = func(p uint64) bool {
			return h.L2.SetIndex(p) == h.L2.SetIndex(physTarget) &&
				!(h.L3[0].SetIndex(p) == tSet && h.Slice(p) == tSlice)
		}
	}
	size := t.R.BigAreaSize()
	base, _ := t.R.BigAreaPhys(0)
	// Every candidate shares the target's L1 (L2 target) or L2 (L3
	// target) set, so candidates recur at that cache's set stride
	// starting from the target's own offset; match stays the correctness
	// filter over the few remaining candidates.
	stride := uint64(h.L1D.Geom.Sets()) * 64
	if level == L3 {
		stride = uint64(h.L2.Geom.Sets()) * 64
	}
	start := (physTarget - base) % stride
	var out []uint32
	for off := start; off < size && len(out) < want; off += stride {
		if match(base + off) {
			out = append(out, nano.BigAreaBase+uint32(off))
		}
	}
	if len(out) < want {
		return nil, fmt.Errorf("cachetools: only %d of %d eviction lines for %s", len(out), want, level)
	}
	return out, nil
}

// checkCodeClean verifies that no line of the generated benchmark (plus
// the measurement prologue/epilogue nanoBench adds) maps to the measured
// set: code fetches fill the unified L2/L3 and would perturb it.
func (t *Tool) checkCodeClean(level Level, slice, set, codeLen int) error {
	h := t.R.M.Hier
	const prologueSlack = 2048 // nanoBench save/init/read/restore code
	for off := 0; off < codeLen+prologueSlack; off += 64 {
		phys, ok := t.R.M.Mem.Translate(nano.CodeBase + uint32(off))
		if !ok {
			break
		}
		if t.setOf(level, phys) != set {
			continue
		}
		if level == L3 && h.Slice(phys) != slice {
			continue
		}
		return fmt.Errorf("cachetools: generated code maps to measured %s set %d (slice %d); choose a different set",
			level, set, slice)
	}
	return nil
}

// hitEventFor returns the counter configuration measuring hits at a level.
func hitEventFor(level Level) (perfcfg.EventSpec, string) {
	switch level {
	case L1:
		return perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: 0x01, Name: "HITS"}, "HITS"
	case L2:
		return perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: 0x02, Name: "HITS"}, "HITS"
	default:
		return perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: 0x04, Name: "HITS"}, "HITS"
	}
}

// loadTemplate is the encoding of "MOV RBX, [abs addr]" with the 32-bit
// absolute address at loadAddrOff, computed once at init. encodeLoad runs
// on the sequence-generation hot path (every access of every trial emits
// one to ~32 of these), so it patches the template instead of re-running
// the instruction encoder.
var (
	loadTemplate []byte
	loadAddrOff  int
)

func init() {
	a, err := x86.EncodeInstr(nil, x86.I(x86.MOV, x86.RBX, x86.MemAt(0x11223344)))
	if err != nil {
		panic(err)
	}
	b, err := x86.EncodeInstr(nil, x86.I(x86.MOV, x86.RBX, x86.MemAt(0x55667788)))
	if err != nil {
		panic(err)
	}
	if len(a) != len(b) || len(a) < 4 {
		panic("cachetools: absolute-load encoding is not fixed-length")
	}
	// The encodings differ exactly in the 4 displacement bytes.
	off := -1
	for i := range a {
		if a[i] != b[i] {
			if off == -1 {
				off = i
			} else if i >= off+4 {
				panic("cachetools: absolute-load displacement not contiguous")
			}
		}
	}
	le := func(c []byte, v uint32) bool {
		return c[off] == byte(v) && c[off+1] == byte(v>>8) &&
			c[off+2] == byte(v>>16) && c[off+3] == byte(v>>24)
	}
	if off < 0 || off+4 > len(a) || !le(a, 0x11223344) || !le(b, 0x55667788) {
		panic("cachetools: cannot locate disp32 in absolute-load encoding")
	}
	loadTemplate, loadAddrOff = a, off
}

// encodeLoad appends "MOV RBX, [abs addr]" (RBX is not reserved in noMem
// mode) by patching the pre-encoded template.
func encodeLoad(code []byte, addr uint32) []byte {
	n := len(code)
	code = append(code, loadTemplate...)
	code[n+loadAddrOff] = byte(addr)
	code[n+loadAddrOff+1] = byte(addr >> 8)
	code[n+loadAddrOff+2] = byte(addr >> 16)
	code[n+loadAddrOff+3] = byte(addr >> 24)
	return code
}

// SeqResult reports one cacheSeq evaluation.
type SeqResult struct {
	Hits     int // hits at the target level among measured accesses
	Measured int // number of measured accesses
}

// Misses returns the number of measured accesses that missed.
func (r SeqResult) Misses() int { return r.Measured - r.Hits }

// RunSeq evaluates an access sequence in the given set (and slice, for
// L3). It generates the microbenchmark — WBINVD and inter-access
// higher-level evictions with counting paused, measured accesses with
// counting enabled — and runs it through kernel-space nanoBench
// (Section VI-C).
func (t *Tool) RunSeq(level Level, slice, set int, seq Seq) (SeqResult, error) {
	return t.RunSeqContext(context.Background(), level, slice, set, seq)
}

// RunSeqContext is RunSeq bounded by a context; long sequence campaigns
// (policy inference, age graphs) pass their caller's context through it.
func (t *Tool) RunSeqContext(ctx context.Context, level Level, slice, set int, seq Seq) (SeqResult, error) {
	res, err := t.RunSeqTrials(ctx, level, slice, set, seq, 1)
	if err != nil {
		return SeqResult{}, err
	}
	return res[0], nil
}

// seqCode generates the microbenchmark for an access sequence: WBINVD and
// inter-access higher-level evictions with counting paused, measured
// accesses with counting enabled (Section VI-C).
func (t *Tool) seqCode(level Level, slice, set int, seq Seq) (code []byte, measured int, err error) {
	if level < L1 || level > L3 {
		return nil, 0, fmt.Errorf("cachetools: cache level %d outside L1-L3", int(level))
	}
	maxIdx := -1
	for _, a := range seq.Accesses {
		if a.Block > maxIdx {
			maxIdx = a.Block
		}
	}
	if maxIdx < 0 {
		return nil, 0, fmt.Errorf("cachetools: empty access sequence")
	}
	blocks, err := t.Blocks(level, slice, set, maxIdx+1)
	if err != nil {
		return nil, 0, err
	}
	// evictCode is the pre-encoded block of loads that displaces the
	// target set's lines from the higher-level caches: one pass over
	// twice the upper-level associativity in distinct lines displaces
	// them under any of the modelled policies (validated by the
	// cross-check tests against ground-truth simulation). It is emitted
	// between consecutive accesses, so it dominates the generated code;
	// encode it once per (level, target) and memoize.
	var evictCode []byte
	if level > L1 {
		phys, _ := t.R.M.Mem.Translate(blocks[0])
		key := evictKey{level, phys >> 6}
		var ok bool
		if evictCode, ok = t.evictCodeCache[key]; !ok {
			evict, err := t.evictAddrs(level, phys)
			if err != nil {
				return nil, 0, err
			}
			for _, e := range evict {
				evictCode = encodeLoad(evictCode, e)
			}
			t.evictCodeCache[key] = evictCode
		}
	}

	code = make([]byte, 0, len(nano.PauseCountingBytes)+
		len(seq.Accesses)*(len(evictCode)+len(loadTemplate)+2*len(nano.PauseCountingBytes))+
		len(nano.ResumeCountingBytes)+16)
	code = append(code, nano.PauseCountingBytes...)
	if seq.WbInvd {
		code, err = x86.EncodeInstr(code, x86.I(x86.WBINVD))
		if err != nil {
			return nil, 0, err
		}
	}
	for _, a := range seq.Accesses {
		code = append(code, evictCode...)
		if a.Measured {
			measured++
			code = append(code, nano.ResumeCountingBytes...)
			code = encodeLoad(code, blocks[a.Block])
			code = append(code, nano.PauseCountingBytes...)
		} else {
			code = encodeLoad(code, blocks[a.Block])
		}
	}
	code = append(code, nano.ResumeCountingBytes...)

	// Instruction fetches travel through the unified L2 and L3: refuse to
	// measure a set the generated code itself maps to (the paper's
	// experiments use sets 512-831, far from the low sets the code region
	// occupies).
	if level > L1 {
		if err := t.checkCodeClean(level, slice, set, len(code)); err != nil {
			return nil, 0, err
		}
	}
	return code, measured, nil
}

// RunSeqTrials evaluates an access sequence n times in one nanoBench
// invocation (NMeasurements=n) and returns the per-trial results in run
// order. Because the benchmark's B-variant is empty in basic mode, a
// batch of n trials drives the simulated caches through exactly the same
// access stream as n sequential RunSeq calls: per-set policy RNG streams
// advance identically, so the per-trial hit counts are decision-identical
// to unbatched runs. Batching amortizes code generation, result handling,
// and runner round-trips across the trials — the bulk of the cost of
// trial-repeated campaigns (set-dueling classification, age graphs).
func (t *Tool) RunSeqTrials(ctx context.Context, level Level, slice, set int, seq Seq, n int) ([]SeqResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("cachetools: trial count %d", n)
	}
	code, measured, err := t.seqCode(level, slice, set, seq)
	if err != nil {
		return nil, err
	}
	ev, name := hitEventFor(level)
	cfg := nano.Config{
		Code:          code,
		UnrollCount:   1,
		NMeasurements: n,
		BasicMode:     true,
		NoMem:         true,
		Aggregate:     nano.Min,
		Events:        []perfcfg.EventSpec{ev},
	}
	// The seq-replay fast path returns the same per-trial hit samples
	// bit-identically while skipping instruction simulation for verified
	// images; ok=false falls back to the full nanoBench run.
	samples, ok, err := t.R.RunSeqHits(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if !ok {
		res, err := t.R.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		m, found := res.Lookup(name)
		if !found {
			return nil, fmt.Errorf("cachetools: hit counter missing")
		}
		samples = m.Samples
	}
	if len(samples) != n {
		return nil, fmt.Errorf("cachetools: %d trial samples, want %d", len(samples), n)
	}
	out := make([]SeqResult, n)
	for k, s := range samples {
		out[k] = SeqResult{Hits: int(s + 0.5), Measured: measured}
	}
	return out, nil
}
