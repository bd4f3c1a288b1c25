package cachetools

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// The seq-replay fast path (nano.RunSeqHits) must be a pure optimization:
// hit counts bit-identical to full machine simulation, and the machine
// left in an equivalent state so that later experiments — with or without
// intervening restreams — see no difference. These tests run the same
// campaigns on a replay-enabled and a replay-disabled tool built from the
// same machine seed and require identical results throughout.

// TestSeqReplayMatchesFullSimTrials interleaves repeated-trial runs of
// random sequences across all three levels without restreaming, so any
// state divergence left by a replayed run would surface in a later
// sequence's counts.
func TestSeqReplayMatchesFullSimTrials(t *testing.T) {
	fast := newTool(t, "Skylake")
	slow := newTool(t, "Skylake")
	slow.R.SetSeqReplay(false)

	type probe struct {
		level Level
		slice int
		set   int
	}
	probes := []probe{{L1, 0, 37}, {L2, 0, 520}, {L3, 0, 600}}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		for _, p := range probes {
			assoc := fast.Assoc(p.level)
			var blocks []int
			for j := 0; j < assoc+6; j++ {
				blocks = append(blocks, rng.Intn(assoc+3))
			}
			seq := SeqOf(true, blocks...).AllMeasured()
			const trials = 4
			got, err := fast.RunSeqTrials(context.Background(), p.level, p.slice, p.set, seq, trials)
			if err != nil {
				t.Fatal(err)
			}
			want, err := slow.RunSeqTrials(context.Background(), p.level, p.slice, p.set, seq, trials)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s set %d (%v): replay %+v, full sim %+v",
					round, p.level, p.set, blocks, got, want)
			}
		}
	}
	if replays, _ := fast.R.SeqReplayStats(); replays == 0 {
		t.Fatal("fast path never replayed a run")
	}
	if replays, _ := slow.R.SeqReplayStats(); replays != 0 {
		t.Fatalf("disabled fast path replayed %d runs", replays)
	}
}

// TestSeqReplayMatchesFullSimAgeGraph reruns a small Figure-1-style age
// graph (Ivy Bridge L3 set 768, probabilistic adaptive leader) both ways,
// and once more with the replayed groups sharded over three workers,
// which may build at most two siblings. Age-graph groups restream the
// hierarchy and batch trials — the exact shape the fast path serves in
// campaigns.
func TestSeqReplayMatchesFullSimAgeGraph(t *testing.T) {
	fast := newTool(t, "IvyBridge")
	slow := newTool(t, "IvyBridge")
	slow.R.SetSeqReplay(false)
	sharded := newTool(t, "IvyBridge")
	sharded.Workers = 3
	spares := []*Tool{newTool(t, "IvyBridge"), newTool(t, "IvyBridge")}
	var siblings atomic.Int32
	sharded.NewSibling = func() (*Tool, error) {
		n := int(siblings.Add(1))
		if n > len(spares) {
			return nil, fmt.Errorf("sibling %d built for %d workers", n, sharded.Workers)
		}
		return spares[n-1], nil
	}

	prefix := SeqOf(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	got, err := fast.AgeGraphFor(L3, 0, 768, prefix, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := slow.AgeGraphFor(L3, 0, 768, prefix, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("age graphs differ:\nreplay:   %+v\nfull sim: %+v", got, want)
	}
	gotSharded, err := sharded.AgeGraphFor(L3, 0, 768, prefix, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSharded, want) {
		t.Fatalf("age graphs differ:\nsharded:  %+v\nfull sim: %+v", gotSharded, want)
	}
	if replays, _ := fast.R.SeqReplayStats(); replays == 0 {
		t.Fatal("fast path never replayed a run")
	}
}

// TestSeqReplayMatchesFullSimDueling reruns a miniature set-dueling
// classification (the steering phases hammer the same images dozens of
// times — the fast path's main beneficiary) both ways.
func TestSeqReplayMatchesFullSimDueling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cache experiment; run without -short")
	}
	fast := newTool(t, "IvyBridge")
	slow := newTool(t, "IvyBridge")
	slow.R.SetSeqReplay(false)

	sets := []int{512, 600, 768}
	got, err := fast.FindDedicatedSets([]int{0}, sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := slow.FindDedicatedSets([]int{0}, sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dueling reports differ:\nreplay:   %+v\nfull sim: %+v", got, want)
	}
	if replays, _ := fast.R.SeqReplayStats(); replays == 0 {
		t.Fatal("fast path never replayed a run")
	}
}

// TestSeqReplayPlansEngage runs a small dueling scan and checks that
// replay plans (cache.Hierarchy.Replay) carry most of its A-variant
// replays without changing the seq-replay ladder: the replayed and real
// run counts are the ones the scan had before plans existed, since a
// plan changes how a replay runs, never whether it runs. B-variant
// images have no WBINVD and never plan.
func TestSeqReplayPlansEngage(t *testing.T) {
	tool := newTool(t, "Haswell")
	if _, err := tool.FindDedicatedSets([]int{0}, []int{512, 600, 768}, 2); err != nil {
		t.Fatal(err)
	}
	replays, realRuns := tool.R.SeqReplayStats()
	if replays != 122 || realRuns != 16 {
		t.Errorf("SeqReplayStats = %d replays, %d real runs; want 122, 16", replays, realRuns)
	}
	planned, walked := tool.R.M.Hier.ReplayStats()
	if planned+walked != replays {
		t.Errorf("hierarchy replayed %d planned + %d walked traces, runner %d", planned, walked, replays)
	}
	// Every RunSeqHits call runs its A and B variants equally often, so
	// at most half of all runs are A-variant replays.
	if aMax := (replays + realRuns) / 2; 2*planned <= aMax {
		t.Errorf("only %d of up to %d A-variant replays ran from a plan", planned, aMax)
	}
}
