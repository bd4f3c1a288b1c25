package cache

import (
	"math/bits"
	"slices"
)

// Hierarchy access tracing and set-local replay.
//
// The cache tools' single-set experiments (RunSeqTrials: age graphs,
// policy inference, set dueling) re-execute the same generated kernel
// image dozens of times per (block, set) group, and in kernel mode the
// sequence of hierarchy operations an image performs — addresses, order,
// and which loads the PMU counts — is state-independent: it depends only
// on the image bytes, not on what the caches contain. The machine can
// therefore record one run's operations through a TraceSink, verify the
// recording against a second real run, and then *replay* the operations
// directly against the live hierarchy: the replay walk mutates cache
// state exactly as the real run would (same lookups, fills, dirty
// writebacks, and invalidations, in the same order) while skipping
// instruction execution, address translation, latency accounting, and
// slice-hash recomputation. Hit counts come out bit-identical by
// construction because the walk runs the same code paths minus the parts
// that cannot affect placement decisions. internal/nano owns the
// record/verify/replay protocol; this file owns the mechanism.

// OpKind classifies one recorded hierarchy operation.
type OpKind uint8

const (
	// OpData is a demand data access (load, store, or software prefetch).
	OpData OpKind = iota
	// OpCode is an instruction-line fetch.
	OpCode
	// OpFlush is a whole-hierarchy invalidation (WBINVD).
	OpFlush
	// OpFlushLine is a single-line invalidation (CLFLUSH).
	OpFlushLine
	// OpCtrRead marks a counter read (RDPMC/RDMSR); it does not touch the
	// hierarchy but delimits the measurement window during replay.
	OpCtrRead
)

// TraceOp is one recorded operation. Level records where the access was
// served on the recorded run; it is diagnostic only and excluded from
// trace equality, since placement varies run to run while the operation
// sequence does not.
type TraceOp struct {
	Kind     OpKind
	Write    bool
	Counting bool // a PMU-visible load (stores and prefetches never count)
	MSR      bool // CtrRead came from RDMSR rather than RDPMC
	Idx      uint32
	Phys     uint64
	Level    uint8
}

// TraceSink collects the hierarchy operations of one machine run. The
// machine calls the record methods from its cache-touching instruction
// paths when a sink is installed (Machine.SetTraceSink).
type TraceSink struct {
	Ops []TraceOp
	// LastCodeLine is the virtual line address of the most recent code
	// fetch; after a replayed run the machine's single-line fetch memo is
	// restored to this value so post-run core state matches a real run.
	LastCodeLine uint64
	HasCode      bool
}

// Reset clears the sink for a new recording.
func (s *TraceSink) Reset() {
	s.Ops = s.Ops[:0]
	s.LastCodeLine = 0
	s.HasCode = false
}

// Data records a demand data access.
func (s *TraceSink) Data(phys uint64, write, counting bool, level int) {
	s.Ops = append(s.Ops, TraceOp{Kind: OpData, Write: write, Counting: counting, Phys: phys, Level: uint8(level)})
}

// Code records an instruction fetch of the line at phys; virtLine is the
// virtual line address the core's fetch memo tracks.
func (s *TraceSink) Code(virtLine, phys uint64, level int) {
	s.Ops = append(s.Ops, TraceOp{Kind: OpCode, Phys: phys, Level: uint8(level)})
	s.LastCodeLine = virtLine
	s.HasCode = true
}

// Flush records a WBINVD.
func (s *TraceSink) Flush() { s.Ops = append(s.Ops, TraceOp{Kind: OpFlush}) }

// FlushLine records a CLFLUSH of the line at phys.
func (s *TraceSink) FlushLine(phys uint64) {
	s.Ops = append(s.Ops, TraceOp{Kind: OpFlushLine, Phys: phys})
}

// CtrRead records a counter read (window delimiter).
func (s *TraceSink) CtrRead(idx uint32, msr bool) {
	s.Ops = append(s.Ops, TraceOp{Kind: OpCtrRead, MSR: msr, Idx: idx})
}

// TraceEqual reports whether two recordings describe the same operation
// sequence. Levels are excluded: they depend on cache state, which
// legitimately differs between runs of the same image.
func TraceEqual(a, b []TraceOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Write != y.Write || x.Counting != y.Counting ||
			x.MSR != y.MSR || x.Idx != y.Idx || x.Phys != y.Phys {
			return false
		}
	}
	return true
}

// PredictHits computes, from a recording's levels, the sample a run would
// report on a counter programmed for "served at level want": counting
// data ops at that level strictly between the first and second reads of
// counter idx. Used to cross-check recordings against real samples.
func PredictHits(ops []TraceOp, idx uint32, want int) int {
	hits, window := 0, 0
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCtrRead:
			if !op.MSR && op.Idx == idx {
				window++
			}
		case OpData:
			if window == 1 && op.Counting && int(op.Level) == want {
				hits++
			}
		}
	}
	return hits
}

// resolvedOp is one compiled trace operation: the line tag replaces the
// address, and the L3 slice hash is precomputed, so the replay walk does
// no hashing and no shifting beyond a set-mask AND per level.
type resolvedOp struct {
	kind   OpKind
	write  bool
	count  bool // counting data access (contributes to the sample window)
	marker bool // CtrRead of the counted index
	slice  int32
	tag    uint64
}

// ResolvedTrace is a recording compiled against one hierarchy's geometry
// (line size and slice hash). It stays valid across Restream/Flush —
// the operations are address-level and state-independent — but must be
// recompiled if the hierarchy itself is rebuilt.
type ResolvedTrace struct {
	ops  []resolvedOp
	want uint8
	// flushAt indexes the trace's only OpFlush, or is -1 when the trace
	// has none or several; only a single-flush trace gets a plan.
	flushAt int
	// plan, once recorded, replaces the ops after the flush, and ops
	// keeps only the prefix before it.
	plan *replayPlan
}

// CompileTrace resolves a recording for replay against h, with the
// sample window delimited by reads of counter countIdx and hits counted
// at wantLevel. Counter reads other than countIdx's are dropped; they
// neither touch the hierarchy nor delimit the window.
func (h *Hierarchy) CompileTrace(ops []TraceOp, countIdx uint32, wantLevel int) *ResolvedTrace {
	lineShift := uint(bits.TrailingZeros(uint(h.lineSize)))
	rt := &ResolvedTrace{ops: make([]resolvedOp, 0, len(ops)), want: uint8(wantLevel), flushAt: -1}
	flushes := 0
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpData, OpCode:
			rt.ops = append(rt.ops, resolvedOp{
				kind:  op.Kind,
				write: op.Write,
				count: op.Counting,
				slice: int32(h.hash.Slice(op.Phys)),
				tag:   op.Phys >> lineShift,
			})
		case OpFlush:
			flushes++
			rt.flushAt = len(rt.ops)
			rt.ops = append(rt.ops, resolvedOp{kind: OpFlush})
		case OpFlushLine:
			rt.ops = append(rt.ops, resolvedOp{
				kind:  OpFlushLine,
				slice: int32(h.hash.Slice(op.Phys)),
				tag:   op.Phys >> lineShift,
			})
		case OpCtrRead:
			if !op.MSR && op.Idx == countIdx {
				rt.ops = append(rt.ops, resolvedOp{kind: OpCtrRead, marker: true})
			}
		}
	}
	if flushes != 1 {
		rt.flushAt = -1
	}
	return rt
}

// Replay plans.
//
// A WBINVD empties every level, and the L1I, L1D and L2 never see L3
// state: the hierarchy is non-inclusive, so an L3 hit or miss fills the
// upper levels the same way, and nothing flows from the L3 back up. When
// those three levels also draw no randomness (policy.SetStateOf), what
// they do after a trace's flush is the same on every replay: the same
// hits and misses, the same dirty evictions, the same end state. The
// first replay of a single-flush trace therefore records a plan of its
// suffix: the counted L1/L2 hits, the ordered stream of operations that
// reach the L3 (demand lookups, fills from dirty L2 evictions, line
// invalidations), and the end state of every upper-level set the suffix
// touched. Later replays walk the prefix, flush, install that end state
// and run only the L3 stream. Every L3 operation still runs live and in
// order, so PSEL steering and the per-set RNG streams of the L3 evolve
// exactly as in a full walk; nothing is pruned by set.

// l3Kind is the operation of one L3 stream entry.
type l3Kind uint8

const (
	l3Lookup     l3Kind = iota // demand lookup, outside the sample
	l3Counted                  // demand lookup of a counted load in the sample window
	l3Fill                     // write-back fill of a dirty L2 eviction
	l3Invalidate               // CLFLUSH
)

type l3Op struct {
	kind  l3Kind
	slice int32
	tag   uint64
}

// replayPlan is a trace's suffix after its flush, as the recording walk
// saw it. Each hierarchy records into one it keeps and reuses (h.rec);
// a trace keeps an exactly sized clone.
type replayPlan struct {
	hits  int            // counted loads of the suffix served by the L1D or L2
	l3    []l3Op         // the suffix's L3 operations, in walk order
	upper [3]setSnapshot // end state of the L1I, L1D and L2
}

func (p *replayPlan) clone() *replayPlan {
	c := &replayPlan{hits: p.hits, l3: slices.Clone(p.l3)}
	for k := range p.upper {
		c.upper[k] = p.upper[k].clone()
	}
	return c
}

func (h *Hierarchy) upper() [3]*Cache { return [3]*Cache{h.L1I, h.L1D, h.L2} }

// plannable reports whether the upper levels draw no randomness and can
// save and load their sets, which a plan needs.
func (h *Hierarchy) plannable() bool {
	return h.L1I.st != nil && h.L1D.st != nil && h.L2.st != nil
}

// ReplayStats reports how many replays since the hierarchy was built ran
// from a recorded plan, and how many walked the whole trace (recording
// a plan or not).
func (h *Hierarchy) ReplayStats() (planned, walked uint64) {
	return h.planned, h.walked
}

// Replay walks a compiled trace through the live hierarchy, mutating
// cache and replacement state exactly as the recorded run would, and
// returns the hit count the run's sample window would report. ok=false
// (hierarchy untouched) if the prefetcher is active: prefetch fills
// depend on L2 hit/miss state, which would make the operation sequence
// state-dependent and the recording unsound.
//
// A single-flush trace on a plannable hierarchy records a plan on its
// first replay and runs from it afterwards; hits and end state are the
// walk's either way.
func (h *Hierarchy) Replay(rt *ResolvedTrace) (hits int, ok bool) {
	if h.Prefetcher.Enabled && h.Prefetcher.Degree > 0 {
		return 0, false
	}
	if rt.plan != nil {
		h.planned++
		return h.replayPlanned(rt), true
	}
	h.walked++
	if rt.flushAt < 0 || !h.plannable() {
		hits, _ = h.walk(rt.ops, rt.want, 0, nil)
		return hits, true
	}
	hits, window := h.walk(rt.ops[:rt.flushAt], rt.want, 0, nil)
	h.Flush()
	rec := &h.rec
	rec.hits, rec.l3 = 0, rec.l3[:0]
	suffix, _ := h.walk(rt.ops[rt.flushAt+1:], rt.want, window, rec)
	for k, c := range h.upper() {
		c.snapshot(&rec.upper[k])
	}
	rt.plan = rec.clone()
	rt.ops = slices.Clone(rt.ops[:rt.flushAt])
	return hits + suffix, true
}

// replayPlanned replays a planned trace: the prefix walks, the flush
// runs, the upper levels take the recorded end state, and the L3 stream
// runs live.
func (h *Hierarchy) replayPlanned(rt *ResolvedTrace) int {
	hits, _ := h.walk(rt.ops, rt.want, 0, nil)
	h.Flush()
	p := rt.plan
	for k, c := range h.upper() {
		c.install(&p.upper[k])
	}
	hits += p.hits
	wantHit := rt.want == 3 // l3Counted is recorded only for want 3 or 4
	for i := range p.l3 {
		op := &p.l3[i]
		c := h.L3[op.slice]
		switch op.kind {
		case l3Lookup:
			c.accessTag(op.tag, false)
		case l3Counted:
			if hit, _, _, _ := c.accessTag(op.tag, false); hit == wantHit {
				hits++
			}
		case l3Fill:
			c.fillTag(op.tag, true)
		case l3Invalidate:
			c.invalidateTag(op.tag)
		}
	}
	return hits
}

// walk runs ops through the hierarchy from sample-window position
// window, returning the counted hits and the final window position.
// With rec non-nil it records the plan of ops, which must follow a
// flush: counted L1/L2 hits go to rec.hits, and every L3 operation is
// appended to rec.l3 in the order it runs.
func (h *Hierarchy) walk(ops []resolvedOp, want uint8, window int, rec *replayPlan) (hits, windowOut int) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case OpData:
			// Mirrors Hierarchy.Data minus latency accounting and the
			// (gated-off) prefetcher observation.
			hit, ev, evDirty, evPhys := h.L1D.accessTag(op.tag, op.write)
			if ev && evDirty {
				_, ev2, ev2Dirty, ev2Phys := h.L2.Access(evPhys, true)
				if ev2 && ev2Dirty {
					h.walkWriteback(ev2Phys, rec)
				}
			}
			counted := window == 1 && op.count
			level := uint8(1)
			if !hit {
				hit2, ev2, ev2Dirty, ev2Phys := h.L2.accessTag(op.tag, false)
				if ev2 && ev2Dirty {
					h.walkWriteback(ev2Phys, rec)
				}
				if hit2 {
					level = 2
				} else {
					if rec != nil {
						kind := l3Lookup
						if counted && (want == 3 || want == 4) {
							kind = l3Counted
						}
						rec.l3 = append(rec.l3, l3Op{kind: kind, slice: op.slice, tag: op.tag})
					}
					if hit3, _, _, _ := h.L3[op.slice].accessTag(op.tag, false); hit3 {
						level = 3
					} else {
						level = 4
					}
				}
			}
			if counted && level == want {
				hits++
				if rec != nil && level <= 2 {
					rec.hits++
				}
			}
		case OpCode:
			// Mirrors Hierarchy.Code minus latency accounting.
			if hit, _, _, _ := h.L1I.accessTag(op.tag, false); !hit {
				hit2, ev2, ev2Dirty, ev2Phys := h.L2.accessTag(op.tag, false)
				if ev2 && ev2Dirty {
					h.walkWriteback(ev2Phys, rec)
				}
				if !hit2 {
					if rec != nil {
						rec.l3 = append(rec.l3, l3Op{kind: l3Lookup, slice: op.slice, tag: op.tag})
					}
					h.L3[op.slice].accessTag(op.tag, false)
				}
			}
		case OpFlush:
			h.Flush()
		case OpFlushLine:
			h.L1I.invalidateTag(op.tag)
			h.L1D.invalidateTag(op.tag)
			h.L2.invalidateTag(op.tag)
			if rec != nil {
				rec.l3 = append(rec.l3, l3Op{kind: l3Invalidate, slice: op.slice, tag: op.tag})
			}
			h.L3[op.slice].invalidateTag(op.tag)
		case OpCtrRead:
			window++
		}
	}
	return hits, window
}

// walkWriteback writes a dirty L2 eviction back into its L3 slice, as
// l2Writeback does, and logs the fill when recording.
func (h *Hierarchy) walkWriteback(phys uint64, rec *replayPlan) {
	c := h.L3[h.hash.Slice(phys)]
	if rec != nil {
		rec.l3 = append(rec.l3, l3Op{kind: l3Fill, slice: int32(c.Slice), tag: c.tag(phys)})
	}
	c.Fill(phys, true)
}
