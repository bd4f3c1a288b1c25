package nano

import (
	"bytes"
	"context"
	"crypto/sha256"

	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/cache"
	"nanobench/internal/sim/machine"
)

// Seq-replay fast path.
//
// The cache tools (RunSeqTrials: age graphs, policy inference, set
// dueling) measure L1/L2/L3 hit counts of straight-line kernel-mode load
// sequences, re-running each generated image NMeasurements times — and
// across trials, priming passes, and A/B variants, often dozens of times
// more. For these images the sequence of cache-hierarchy operations is
// state-independent: no branches, no interrupts, addresses fixed by the
// image bytes. The fast path exploits that by recording the hierarchy
// trace of one real run (Machine.SetTraceSink), verifying it against a
// second real run, and then replaying the trace directly against the
// live hierarchy (cache.Hierarchy.Replay): cache and replacement state
// evolve exactly as a real run would — the replay walk is the same
// lookup/fill/writeback code minus execution — while instruction
// simulation, address translation, and latency modelling are skipped
// entirely.
//
// Verification is defense in depth; all of it must pass twice before the
// first replay:
//
//   - two consecutive real runs must produce equal traces (operation
//     sequence and addresses; serve levels are allowed to differ),
//   - the sample predicted from the recorded trace (counting loads at
//     the target level between the two reads of the measured counter —
//     cache.PredictHits) must equal the machine's real sample on both
//     runs, pinning the window model,
//   - the run must retire no interrupts, and every store must target the
//     runner's aux region (store side effects outside it are not
//     replayed),
//   - the core's single-line fetch memo at run entry must not suppress
//     the image's entry-line fetch (the recorded trace assumes it is
//     fetched); after a replayed run the memo is restored to the trace's
//     last code line, so post-run core state matches a real run.
//
// Images that ever fail a check are blacklisted and run real forever;
// configurations outside the replayable shape (non-kernel mode, loops,
// multiple events, CPUID — whose latency draws the machine RNG shared
// with the allocator) never enter the fast path at all.
//
// Images additionally share verification at the template level. The seq
// generator emits one code shape per (sequence structure, level); the
// images of a sweep differ only in the block addresses baked into their
// operands, so state-independence is a property of the shape, not the
// instantiation. After seqTemplateTrust distinct images of a template
// (keyed by code length and target level — address changes never change
// the length) have each passed the full two-run trace-equality
// verification, further images of that template are trusted after a
// single recorded run — the per-image checks (interrupts, confined
// writes, predicted-vs-real sample) still all apply to that recording.
// Any verification anomaly anywhere in a template revokes its trust
// permanently, returning its future images to two-run verification.

// seqTraceCacheCap bounds the per-runner trace cache. Campaign loops
// cycle through far fewer images than this; on overflow the whole cache
// is dropped (entries are cheap to relearn: two real runs each).
const seqTraceCacheCap = 512

// seqTemplateTrust is the number of images of a template that must pass
// two-run verification before the template's later images are trusted
// after one recorded (and per-image-checked) run. One verified image
// suffices: the predicted-vs-real sample check on every later image's
// recording already catches any state dependence the first image missed,
// and a single anomaly revokes the template permanently.
const seqTemplateTrust = 1

const (
	// seqHitsSlot is the read slot of the single core event: three fixed
	// counters precede it (see buildGroups).
	seqHitsSlot = 3
	// seqCountIdx is the RDPMC index of programmable counter 0, which
	// buildGroups assigns to the first (only) core event.
	seqCountIdx = 0
)

type seqTraceEntry struct {
	// ops is the raw recording, kept until the verified entry compiles
	// it into resolved.
	ops      []cache.TraceOp
	lastLine uint64
	hasCode  bool
	resolved *cache.ResolvedTrace
	tmpl     *seqTemplate
	// state: 0 nothing recorded, 1 recorded once, 2 verified.
	state       int
	mismatches  int
	blacklisted bool
}

// seqTemplateKey identifies a generated code shape: images of one sweep
// share the shape and differ only in operand addresses, which never
// change the code length.
type seqTemplateKey struct {
	codeLen int
	level   int
}

// seqTemplate accumulates verification evidence across the images of one
// code shape.
type seqTemplate struct {
	verified int  // images that passed two-run trace-equality verification
	revoked  bool // an image of this template failed a verification check
}

// seqImageKey identifies a generated image pair by the content that
// determines its bytes within the RunSeqHits gate (kernel mode, basic,
// noMem, no loop, single event fixed by level): the benchmark code and
// init bodies, the event level, the unroll count, and the memory-area
// choice.
type seqImageKey struct {
	code    [32]byte
	init    [32]byte
	level   int
	unroll  int
	bigArea bool
}

// seqImagePair holds the generated A (unrolled) and B (empty-body)
// variant images of one configuration.
type seqImagePair struct {
	a, b []byte
}

// seqEntryKey identifies a trace entry: the image bytes and the level the
// compiled trace counts hits at. The bytes alone do not name the level,
// because the runner programs the hit event by MSR, outside the image.
type seqEntryKey struct {
	image [32]byte
	level int
}

type seqReplayState struct {
	entries   map[seqEntryKey]*seqTraceEntry
	templates map[seqTemplateKey]*seqTemplate
	// images memoizes generated image pairs: campaign loops re-probe the
	// same configurations across many passes, and regenerating a
	// byte-identical image (marker replacement, instruction encoding)
	// costs more than the replay that follows it. Image bytes depend only
	// on the key — never on machine or mapping state — so the memo
	// survives RebootAndRemap.
	images   map[seqImageKey]seqImagePair
	sink     cache.TraceSink
	disabled bool
	replays  uint64
	realRuns uint64
	// Two-slot MRU memo over the entry lookup: the run loops alternate
	// between at most two images (the A and B unroll variants), and a
	// bytes.Equal probe is far cheaper than hashing the image.
	memoCode  [2][]byte
	memoLevel [2]int
	memoEnt   [2]*seqTraceEntry
}

// lookup returns the trace entry for an image counting hits at level,
// creating it (and its template) on first sight.
func (sr *seqReplayState) lookup(code []byte, level int) *seqTraceEntry {
	for k, ent := range sr.memoEnt {
		if ent != nil && sr.memoLevel[k] == level && bytes.Equal(sr.memoCode[k], code) {
			return ent
		}
	}
	key := seqEntryKey{sha256.Sum256(code), level}
	ent := sr.entries[key]
	if ent == nil {
		if len(sr.entries) >= seqTraceCacheCap {
			sr.entries = make(map[seqEntryKey]*seqTraceEntry)
		}
		tk := seqTemplateKey{codeLen: len(code), level: level}
		tmpl := sr.templates[tk]
		if tmpl == nil {
			if len(sr.templates) >= seqTraceCacheCap {
				sr.templates = make(map[seqTemplateKey]*seqTemplate)
			}
			tmpl = &seqTemplate{}
			sr.templates[tk] = tmpl
		}
		ent = &seqTraceEntry{tmpl: tmpl}
		sr.entries[key] = ent
	}
	// The image slice is freshly generated per RunSeqHits call and never
	// mutated afterwards, so the memo can alias it instead of copying.
	sr.memoCode[1], sr.memoLevel[1], sr.memoEnt[1] = sr.memoCode[0], sr.memoLevel[0], sr.memoEnt[0]
	sr.memoCode[0], sr.memoLevel[0], sr.memoEnt[0] = code, level, ent
	return ent
}

// dropMemo invalidates the lookup memo (entries were discarded).
func (sr *seqReplayState) dropMemo() {
	sr.memoCode[0], sr.memoCode[1] = nil, nil
	sr.memoEnt[0], sr.memoEnt[1] = nil, nil
}

func (r *Runner) seqState() *seqReplayState {
	if r.seq == nil {
		r.seq = &seqReplayState{
			entries:   make(map[seqEntryKey]*seqTraceEntry),
			templates: make(map[seqTemplateKey]*seqTemplate),
			images:    make(map[seqImageKey]seqImagePair),
		}
	}
	return r.seq
}

// generateSeqImages returns the memoized A/B variant images for cfg,
// generating and caching them on first sight.
func (r *Runner) generateSeqImages(cfg Config, g counterGroup, level int) (seqImagePair, error) {
	sr := r.seqState()
	ik := seqImageKey{
		code:    sha256.Sum256(cfg.Code),
		level:   level,
		unroll:  cfg.UnrollCount,
		bigArea: cfg.UseBigArea,
	}
	if len(cfg.CodeInit) > 0 {
		ik.init = sha256.Sum256(cfg.CodeInit)
	}
	if pair, ok := sr.images[ik]; ok {
		return pair, nil
	}
	codeA, err := r.generate(cfg, g, cfg.UnrollCount)
	if err != nil {
		return seqImagePair{}, err
	}
	codeB, err := r.generate(cfg, g, 0)
	if err != nil {
		return seqImagePair{}, err
	}
	if len(sr.images) >= seqTraceCacheCap {
		sr.images = make(map[seqImageKey]seqImagePair)
	}
	pair := seqImagePair{a: codeA, b: codeB}
	sr.images[ik] = pair
	return pair, nil
}

// SetSeqReplay enables or disables the seq-replay fast path (enabled by
// default). The equivalence tests disable it to compare against fully
// simulated runs.
func (r *Runner) SetSeqReplay(on bool) { r.seqState().disabled = !on }

// SeqReplayStats reports how many runs the fast path replayed vs ran on
// the machine since the runner was built.
func (r *Runner) SeqReplayStats() (replays, realRuns uint64) {
	s := r.seqState()
	return s.replays, s.realRuns
}

// seqHitLevel maps a cache-hit event spec (MEM_LOAD_RETIRED, event 0xD1)
// to the hierarchy level it counts hits at.
func seqHitLevel(ev perfcfg.EventSpec) (int, bool) {
	if ev.Kind != perfcfg.Core || ev.EvtSel != 0xD1 {
		return 0, false
	}
	switch ev.Umask {
	case 0x01:
		return 1, true
	case 0x02:
		return 2, true
	case 0x04:
		return 3, true
	}
	return 0, false
}

// containsCPUID scans code for an 0F A2 (CPUID) byte pair. False
// positives (the pair inside an immediate) merely force the slow path.
func containsCPUID(code []byte) bool {
	for i := 0; i+1 < len(code); i++ {
		if code[i] == 0x0F && code[i+1] == 0xA2 {
			return true
		}
	}
	return false
}

// RunSeqHits evaluates a single-event cache-hit configuration through
// the seq-replay fast path and returns the per-measurement hit samples —
// exactly the Samples of the event's Metric under RunContext, bit-
// identical (each sample is variant A's raw count minus variant B's,
// over the unroll count). ok=false means the configuration is outside
// the replayable shape (or the fast path is disabled) and the caller
// must fall back to RunContext; no machine state was touched in that
// case. Only the hit samples are produced: fixed-counter values (cycles,
// instructions) depend on timing, which replay does not model.
func (r *Runner) RunSeqHits(ctx context.Context, cfg Config) ([]float64, bool, error) {
	cfg = cfg.applyDefaults()
	if r.seqState().disabled || r.mode != machine.Kernel ||
		!cfg.BasicMode || !cfg.NoMem || cfg.LoopCount != 0 || len(cfg.Events) != 1 {
		return nil, false, nil
	}
	level, ok := seqHitLevel(cfg.Events[0])
	if !ok {
		return nil, false, nil
	}
	if containsCPUID(cfg.Code) || containsCPUID(cfg.CodeInit) {
		return nil, false, nil
	}
	if err := r.validate(&cfg); err != nil {
		return nil, false, nil // let the slow path surface the error
	}
	groups, err := r.buildGroups(cfg)
	if err != nil || len(groups) != 1 || len(groups[0].core) != 1 || len(groups[0].reads) != seqHitsSlot+1 {
		return nil, false, nil
	}
	g := groups[0]
	if err := r.programCounters(g); err != nil {
		return nil, false, nil
	}
	pair, err := r.generateSeqImages(cfg, g, level)
	if err != nil || len(pair.a) > CodeSize {
		return nil, false, nil
	}
	runsA, err := r.seqVariantRuns(ctx, cfg, pair.a, level)
	if err != nil {
		return nil, true, err
	}
	runsB, err := r.seqVariantRuns(ctx, cfg, pair.b, level)
	if err != nil {
		return nil, true, err
	}
	denom := float64(cfg.UnrollCount) // max(1, LoopCount)·UnrollCount; LoopCount is 0 here
	samples := make([]float64, len(runsA))
	for k := range samples {
		samples[k] = (runsA[k] - runsB[k]) / denom
	}
	return samples, true, nil
}

// seqVariantRuns runs one unroll variant's warm-up + measurement series,
// replaying runs whose image has a verified trace and running the rest
// on the machine (recording until verified), and returns the raw
// per-measurement values of the hits read slot.
func (r *Runner) seqVariantRuns(ctx context.Context, cfg Config, code []byte, level int) ([]float64, error) {
	sr := r.seqState()
	ent := sr.lookup(code, level)
	entryLine := uint64(CodeBase) &^ (uint64(r.M.Hier.LineSize()) - 1)
	out := make([]float64, 0, cfg.NMeasurements)
	for i := -cfg.WarmUpCount; i < cfg.NMeasurements; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		memoLine, hasMemo := r.M.FetchLineMemo()
		suppressed := hasMemo && memoLine == entryLine
		if ent.state == 2 && !ent.blacklisted && !suppressed {
			if ent.resolved == nil {
				ent.resolved = r.M.Hier.CompileTrace(ent.ops, seqCountIdx, level)
				ent.ops = nil // a verified entry never records again
			}
			if hits, ok := r.M.Hier.Replay(ent.resolved); ok {
				if ent.hasCode {
					r.M.SetFetchLineMemo(ent.lastLine)
				}
				if i >= 0 {
					out = append(out, float64(hits))
				}
				sr.replays++
				continue
			}
		}
		// Real run: install the image unless the identical bytes are
		// already installed with their pre-decoded program intact.
		if !(r.M.ProgramValid(CodeBase, len(code)) && bytes.Equal(code, r.lastCode)) {
			if err := r.M.WriteCode(CodeBase, code); err != nil {
				return nil, err
			}
			r.lastCode = append(r.lastCode[:0], code...)
		}
		record := ent.state < 2 && !ent.blacklisted && !suppressed
		if record {
			sr.sink.Reset()
			r.M.SetTraceSink(&sr.sink)
		}
		r.M.PMU.ResetAll(r.M.Cycle())
		rr, err := r.M.RunContext(ctx, CodeBase)
		if record {
			r.M.SetTraceSink(nil)
		}
		if err != nil {
			return nil, err
		}
		v, _ := r.M.Mem.Read64(auxNoMemOut + uint32(8*seqHitsSlot))
		if record {
			r.seqLearn(ent, rr, int64(v), level)
		}
		if i >= 0 {
			out = append(out, float64(v))
		}
		sr.realRuns++
	}
	return out, nil
}

// seqLearn folds one recorded real run into the trace entry's
// record → verify state machine.
func (r *Runner) seqLearn(ent *seqTraceEntry, rr machine.RunResult, sample int64, level int) {
	sink := &r.seq.sink
	if rr.Interrupts > 0 || !r.seqWritesConfined(sink.Ops) {
		ent.blacklisted = true
		ent.revokeTemplate()
		return
	}
	if int64(cache.PredictHits(sink.Ops, seqCountIdx, level)) != sample {
		// The program-order window model does not hold for this image.
		ent.blacklisted = true
		ent.revokeTemplate()
		return
	}
	if ent.state == 1 {
		if cache.TraceEqual(ent.ops, sink.Ops) {
			ent.state = 2
			if ent.tmpl != nil {
				ent.tmpl.verified++
			}
			return
		}
		ent.mismatches++
		ent.revokeTemplate()
		if ent.mismatches >= 2 {
			ent.blacklisted = true
			return
		}
	}
	ent.ops = append(ent.ops[:0], sink.Ops...)
	ent.lastLine = sink.LastCodeLine
	ent.hasCode = sink.HasCode
	ent.resolved = nil
	ent.state = 1
	if ent.tmpl != nil && !ent.tmpl.revoked && ent.tmpl.verified >= seqTemplateTrust {
		// The code shape has repeatedly proven state-independent; trust
		// this image's (per-image-checked) single recording.
		ent.state = 2
	}
}

// revokeTemplate permanently withdraws template-level trust after any
// verification anomaly in one of its images.
func (e *seqTraceEntry) revokeTemplate() {
	if e.tmpl != nil {
		e.tmpl.revoked = true
	}
}

// seqWritesConfined reports whether every store in the trace targets the
// runner's aux region (register save area, counter dumps). Replay
// reproduces stores' cache effects but not their memory contents, which
// is sound only for the aux slots real runs always rewrite before
// reading.
func (r *Runner) seqWritesConfined(ops []cache.TraceOp) bool {
	var lo, hi uint64
	for _, reg := range r.regions {
		if reg.virt == AuxBase {
			lo, hi = reg.phys, reg.phys+reg.size
			break
		}
	}
	if hi == 0 {
		return false
	}
	for i := range ops {
		op := &ops[i]
		if op.Kind == cache.OpData && op.Write && (op.Phys < lo || op.Phys >= hi) {
			return false
		}
	}
	return true
}
