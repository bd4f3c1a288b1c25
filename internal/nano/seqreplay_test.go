package nano

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
)

// TestSeqReplayKeysTracesByLevel: an image's bytes do not name the level
// its hit event counts at (the runner programs the event by MSR), so a
// trace learned while counting one level must never serve a run counting
// another. Each case runs one image at a first level until its trace
// replays, then once at a second level, on a replaying runner and on a
// runner with the fast path off; every call's samples must match.
func TestSeqReplayKeysTracesByLevel(t *testing.T) {
	code := MustAsm("wbinvd\nmov rbx, [r14]\nmov rbx, [r14]\nmov rbx, [r14+4096]")
	umask := map[int]uint8{1: 0x01, 2: 0x02, 3: 0x04}
	hits := func(r *Runner, level int) []float64 {
		t.Helper()
		cfg := Config{
			Code:          code,
			UnrollCount:   1,
			NMeasurements: 3,
			BasicMode:     true,
			NoMem:         true,
			Events:        []perfcfg.EventSpec{{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: umask[level], Name: "HITS"}},
		}
		samples, ok, err := r.RunSeqHits(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return samples
		}
		res, err := r.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, found := res.Lookup("HITS")
		if !found {
			t.Fatal("hit counter missing")
		}
		return m.Samples
	}
	for _, levels := range [][2]int{{1, 3}, {3, 1}, {1, 2}} {
		t.Run(fmt.Sprintf("L%d-then-L%d", levels[0], levels[1]), func(t *testing.T) {
			fast := skylakeRunner(t, machine.Kernel)
			slow := skylakeRunner(t, machine.Kernel)
			slow.SetSeqReplay(false)
			for _, r := range []*Runner{fast, slow} {
				if err := r.SetPrefetchersEnabled(false); err != nil {
					t.Fatal(err)
				}
			}
			seq := []int{levels[0], levels[0], levels[0], levels[0], levels[1]}
			for i, level := range seq {
				if i == len(seq)-1 {
					if replays, _ := fast.SeqReplayStats(); replays == 0 {
						t.Fatalf("no run replayed at L%d, so the level switch proves nothing", levels[0])
					}
				}
				got, want := hits(fast, level), hits(slow, level)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("call %d at L%d: replay %v, full simulation %v", i+1, level, got, want)
				}
			}
		})
	}
}
