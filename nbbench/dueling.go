package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nanobench"
	"nanobench/internal/cachetools"
	"nanobench/internal/sched"
	"nanobench/internal/uarch"
)

// duelingModels are the adaptive (set-dueling) L3 models of Table I.
var duelingModels = []string{"IvyBridge", "Haswell", "Broadwell"}

// Leader-set scan parameters. Each model scans both slices of sets drawn
// from the two dedicated ranges (512-575 and 768-831) and from the
// follower sets around them. The draw is balanced, three sets from each
// dedicated range, because the scan steers the duel by thrashing leaders:
// with more leaders of one policy than the other it could not flip the
// followers and reported them as leaders. Seven trials per set keep the
// trial-to-trial variance test of the stochastic leaders reliable; with
// five, IvyBridge's slice-0 set 812 read as a follower.
const (
	duelingPerRange = 3
	duelingOutside  = 4
	duelingTrials   = 7
	// Follower candidates start at 448: lower sets can collide with the
	// generated benchmark code, which the tool refuses to measure.
	duelingOutsideLo = 448
	duelingOutsideHi = 1023
)

var duelingSlices = []int{0, 1}

// duelingSets draws one model's scanned sets.
func duelingSets(rng *rand.Rand) []int {
	seen := map[int]bool{}
	var sets []int
	draw := func(lo, hi int, ok func(int) bool) {
		for {
			v := lo + rng.Intn(hi-lo+1)
			if !seen[v] && ok(v) {
				seen[v] = true
				sets = append(sets, v)
				return
			}
		}
	}
	inRange := func(int) bool { return true }
	follower := func(v int) bool { return !(v >= 512 && v <= 575) && !(v >= 768 && v <= 831) }
	for k := 0; k < duelingPerRange; k++ {
		draw(512, 575, inRange)
		draw(768, 831, inRange)
	}
	for k := 0; k < duelingOutside; k++ {
		draw(duelingOutsideLo, duelingOutsideHi, follower)
	}
	return sets
}

// duelingTool opens a fresh kernel-mode cache tool for a model.
func cacheTool(model string) (*cachetools.Tool, error) {
	s, err := nanobench.Open(nanobench.WithCPU(model), nanobench.WithMode(nanobench.Kernel))
	if err != nil {
		return nil, err
	}
	r, err := s.NewRunner()
	if err != nil {
		return nil, err
	}
	return cachetools.New(r)
}

// duelingMisses counts the report's classifications that disagree with
// the model's injected configuration (uarch ExpectedL3Policy).
func duelingMisses(model string, rep *cachetools.DuelingReport) (int, error) {
	cpu, err := uarch.ByName(model)
	if err != nil {
		return 0, err
	}
	misses := 0
	for k, class := range rep.Class {
		want := cachetools.ClassFollower
		if pol, dedicated := cpu.ExpectedL3Policy(k[0], k[1]); dedicated {
			want = cachetools.ClassStochastic
			if pol == cpu.L3Adaptive.PolicyA {
				want = cachetools.ClassDeterministic
			}
		}
		if class != want {
			misses++
		}
	}
	return misses, nil
}

// setDueling is the set-dueling workload: each pass scans freshly drawn
// sets on a fresh machine per model, the models in parallel.
type setDueling struct {
	seed int64
	par  int
}

func openSetDueling(ctx context.Context, seed int64, par int) (instance, error) {
	w := &setDueling{seed: seed, par: par}
	return openPasses(ctx, w.pass)
}

func (w *setDueling) pass(ctx context.Context, i int, tr *tracer, parent int64) (outcome, []byte, error) {
	rng := passRand(w.seed, i)
	sets := make([][]int, len(duelingModels))
	for m := range duelingModels {
		sets[m] = duelingSets(rng)
	}
	per := len(duelingSlices) * len(sets[0])
	o := outcome{attempted: per * len(duelingModels)}
	reports := make([]*cachetools.DuelingReport, len(duelingModels))
	misses := make([]int, len(duelingModels))
	err := sched.ForEach(len(duelingModels), w.par, func(m int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tool, err := cacheTool(duelingModels[m])
		if err != nil {
			return err
		}
		id := tr.begin("cachetools.dueling", parent, int64(i*len(duelingModels)+m))
		rep, err := tool.FindDedicatedSets(duelingSlices, sets[m], duelingTrials)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", duelingModels[m], err)
		}
		reports[m] = rep
		misses[m], err = duelingMisses(duelingModels[m], rep)
		return err
	})
	if err != nil {
		o.failed = o.attempted
		return o, nil, err
	}
	for _, n := range misses {
		o.failed += n
	}
	o.work = float64(o.attempted - o.failed)
	if i != 0 {
		return o, nil, nil
	}
	var lines []string
	for m, rep := range reports {
		for k, class := range rep.Class {
			lines = append(lines, fmt.Sprintf("%s %d %d %c", duelingModels[m], k[0], k[1], class))
		}
	}
	sort.Strings(lines)
	return o, []byte(strings.Join(lines, "\n")), nil
}
