package cachetools

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"nanobench/internal/sched"
)

// AgeGraph holds the data of a Figure-1-style age graph: for every block
// of an access sequence, the number of trials (out of Trials) in which the
// block still hit after n fresh blocks were accessed.
type AgeGraph struct {
	// FreshCounts are the x-axis values.
	FreshCounts []int `json:"fresh_counts"`
	// Hits[b][k] is the hit count of prefix block b after FreshCounts[k]
	// fresh blocks.
	Hits [][]int `json:"hits"`
	// BlockIDs are the measured prefix blocks, in prefix order.
	BlockIDs []int `json:"block_ids"`
	Trials   int   `json:"trials"`
}

// AgeSample runs one age experiment (Section VI-C2): execute the prefix
// sequence, access fresh distinct blocks, then probe one prefix block and
// report whether it still hits at the target level.
func (t *Tool) AgeSample(level Level, slice, set int, prefix Seq, block, fresh int) (bool, error) {
	maxIdx := 0
	for _, a := range prefix.Accesses {
		if a.Block > maxIdx {
			maxIdx = a.Block
		}
	}
	seq := Seq{WbInvd: prefix.WbInvd}
	seq.Accesses = append(seq.Accesses, prefix.Accesses...)
	for i := range seq.Accesses {
		seq.Accesses[i].Measured = false
	}
	for f := 0; f < fresh; f++ {
		seq.Accesses = append(seq.Accesses, Access{Block: maxIdx + 1 + f})
	}
	seq.Accesses = append(seq.Accesses, Access{Block: block, Measured: true})
	res, err := t.RunSeq(level, slice, set, seq)
	if err != nil {
		return false, err
	}
	return res.Hits > 0, nil
}

// AgeGraphFor measures an age graph for every distinct block of the prefix
// sequence. These graphs are the tool of choice for non-deterministic
// policies (Section VI-C2, Figure 1): each point is the number of trials
// in which the block survived n fresh misses.
//
// Each (block, fresh-count) group is measured independently: the
// simulated hierarchy is first restreamed to an RNG stream derived from
// the group index (so the group's outcome is a pure function of the
// machine seed and the group, not of any previously simulated work), and
// the group's trials run as one batched nanoBench invocation. This makes
// the graph byte-identical at any worker count, so groups shard freely
// across sibling tools when Workers and NewSibling are set. A running
// group takes an idle tool and builds a sibling only when none is idle,
// so at most Workers tools exist. The first failing group fails the graph.
func (t *Tool) AgeGraphFor(level Level, slice, set int, prefix Seq, maxFresh, step, trials int) (*AgeGraph, error) {
	if step < 1 {
		step = 1
	}
	seen := map[int]bool{}
	var blocks []int
	maxIdx := 0
	for _, a := range prefix.Accesses {
		if !seen[a.Block] {
			seen[a.Block] = true
			blocks = append(blocks, a.Block)
		}
		if a.Block > maxIdx {
			maxIdx = a.Block
		}
	}
	g := &AgeGraph{BlockIDs: blocks, Trials: trials}
	for n := 0; n <= maxFresh; n += step {
		g.FreshCounts = append(g.FreshCounts, n)
	}
	g.Hits = make([][]int, len(blocks))
	for bi := range blocks {
		g.Hits[bi] = make([]int, len(g.FreshCounts))
	}

	type group struct{ bi, ki int }
	var groups []group
	for bi := range blocks {
		for ki := range g.FreshCounts {
			groups = append(groups, group{bi, ki})
		}
	}
	runGroup := func(tt *Tool, gi int) error {
		gr := groups[gi]
		seq := Seq{WbInvd: prefix.WbInvd}
		seq.Accesses = append(seq.Accesses, prefix.Accesses...)
		for i := range seq.Accesses {
			seq.Accesses[i].Measured = false
		}
		for f := 0; f < g.FreshCounts[gr.ki]; f++ {
			seq.Accesses = append(seq.Accesses, Access{Block: maxIdx + 1 + f})
		}
		seq.Accesses = append(seq.Accesses, Access{Block: blocks[gr.bi], Measured: true})
		tt.R.M.Hier.Restream(int64(gi) + 1)
		res, err := tt.RunSeqTrials(context.Background(), level, slice, set, seq, trials)
		if err != nil {
			return err
		}
		hits := 0
		for _, r := range res {
			if r.Hits > 0 {
				hits++
			}
		}
		g.Hits[gr.bi][gr.ki] = hits
		return nil
	}

	// No more tools than groups can run at once.
	workers := 1
	if t.NewSibling != nil {
		workers = max(min(t.Workers, len(groups)), 1)
	}
	// Sized to the most tools that can exist, so returning one never
	// blocks.
	idle := make(chan *Tool, workers)
	idle <- t
	var failed atomic.Bool
	err := sched.ForEach(len(groups), workers, func(gi int) error {
		if failed.Load() {
			return nil
		}
		var tt *Tool
		select {
		case tt = <-idle:
		default:
			var err error
			if tt, err = t.NewSibling(); err != nil {
				failed.Store(true)
				return err
			}
		}
		defer func() { idle <- tt }()
		if err := runGroup(tt, gi); err != nil {
			failed.Store(true)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Format renders the graph as a gnuplot-ready table: one row per fresh
// count, one column per block.
func (g *AgeGraph) Format() string {
	var sb strings.Builder
	sb.WriteString("# fresh")
	for _, b := range g.BlockIDs {
		fmt.Fprintf(&sb, "\tB%d", b)
	}
	sb.WriteByte('\n')
	for ki, n := range g.FreshCounts {
		fmt.Fprintf(&sb, "%d", n)
		for bi := range g.BlockIDs {
			fmt.Fprintf(&sb, "\t%d", g.Hits[bi][ki])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SurvivalAt returns the fraction of trials in which block bi survived n
// fresh blocks (n must be one of the sampled fresh counts).
func (g *AgeGraph) SurvivalAt(bi, n int) (float64, bool) {
	for ki, fc := range g.FreshCounts {
		if fc == n {
			return float64(g.Hits[bi][ki]) / float64(g.Trials), true
		}
	}
	return 0, false
}
