package cache

import (
	"fmt"
	"slices"
)

// Walk replays rt by walking every operation, never recording or using
// a plan: the reference the plan tests compare Replay against. rt must
// not have been replayed, since a plan drops the walked suffix.
func Walk(h *Hierarchy, rt *ResolvedTrace) int {
	hits, _ := h.walk(rt.ops, rt.want, 0, nil)
	return hits
}

// StateDiff describes the first difference between the effective states
// of two hierarchies built from the same configuration, or returns "".
// Per cache it compares the valid-line count and, set by set, whether
// the set is current (touched since the last invalidation) and, if so,
// its tags, dirty bits, valid count and — where the engine offers
// per-set state — replacement state. A stale set holds nothing a later
// access can observe, so its leftovers are not compared. L3 engines
// without per-set state (dueling, MRU, RANDOM) run the same live
// operations on both sides; a divergence there shows in later hits and
// tags.
func StateDiff(a, b *Hierarchy) string {
	ca := append([]*Cache{a.L1I, a.L1D, a.L2}, a.L3...)
	cb := append([]*Cache{b.L1I, b.L1D, b.L2}, b.L3...)
	for k := range ca {
		if d := cacheDiff(ca[k], cb[k]); d != "" {
			return fmt.Sprintf("%s slice %d: %s", ca[k].Geom.Name, ca[k].Slice, d)
		}
	}
	return ""
}

func cacheDiff(a, b *Cache) string {
	if a.validCount != b.validCount {
		return fmt.Sprintf("%d valid lines, want %d", a.validCount, b.validCount)
	}
	var sa, sb []uint64
	for si := range a.setEpoch {
		cur := a.setEpoch[si] == a.epoch
		if cur != (b.setEpoch[si] == b.epoch) {
			return fmt.Sprintf("set %d current %v, want %v", si, cur, !cur)
		}
		if !cur {
			continue
		}
		if a.setValid[si] != b.setValid[si] {
			return fmt.Sprintf("set %d holds %d lines, want %d", si, a.setValid[si], b.setValid[si])
		}
		base := si * a.assoc
		for i := base; i < base+a.assoc; i++ {
			if a.tags[i] != b.tags[i] || a.flags[i] != b.flags[i] {
				return fmt.Sprintf("set %d way %d holds tag %#x flags %d, want %#x flags %d",
					si, i-base, a.tags[i], a.flags[i], b.tags[i], b.flags[i])
			}
		}
		if a.st != nil {
			sa, sb = a.st.AppendSetState(sa[:0], si), b.st.AppendSetState(sb[:0], si)
			if !slices.Equal(sa, sb) {
				return fmt.Sprintf("set %d replacement state %x, want %x", si, sa, sb)
			}
		}
	}
	return ""
}
