package cachetools

import (
	"fmt"

	"nanobench/internal/sim/policy"
)

// PermCheck is the result of verifying a permutation-policy model against
// hardware-counter measurements (Section VI-C1, first tool; the algorithm
// family of Abel & Reineke, RTAS 2013).
type PermCheck struct {
	// Positions is the number of hit positions verified (plus the base
	// fill state).
	Positions int
	// Mismatches lists human-readable descriptions of deviations.
	Mismatches []string
}

// OK reports whether the model explained every measurement.
func (p *PermCheck) OK() bool { return len(p.Mismatches) == 0 }

// VerifyPermutations validates a permutation-policy specification against
// the cache: for the base fill state and for the state after a hit at each
// order position, it measures the eviction age of every filled block (via
// fresh-miss elimination experiments) and compares with the model's
// prediction.
//
// The RTAS'13 paper searches for the permutations; here the candidate
// produced by InferPolicy is verified instead, which exercises the same
// measurements.
func (t *Tool) VerifyPermutations(level Level, slice, set int, perms policy.Perms) (*PermCheck, error) {
	assoc := perms.Assoc
	check := &PermCheck{}

	fill := make([]int, assoc)
	for i := range fill {
		fill[i] = i
	}

	// verifyState measures the eviction ages of blocks 0..assoc-1 after
	// running prefix, and compares them with the model.
	verifyState := func(label string, prefix []int) error {
		model := policy.NewPermutation("model", perms)
		want := policy.EliminationOrder(model, prefix, assoc+2)
		for b := 0; b < assoc; b++ {
			// Eviction age of block b: smallest n such that b misses
			// after n fresh blocks.
			age := -1
			for n := 1; n <= assoc+1; n++ {
				hit, err := t.AgeSample(level, slice, set, SeqOf(true, prefix...), b, n)
				if err != nil {
					return err
				}
				if !hit {
					age = n
					break
				}
			}
			if want[b] != age {
				check.Mismatches = append(check.Mismatches,
					fmt.Sprintf("%s: block %d evicted after %d fresh misses, model predicts %d",
						label, b, age, want[b]))
			}
		}
		return nil
	}

	if err := verifyState("fill", fill); err != nil {
		return nil, err
	}
	check.Positions++

	// One hit at every position of the just-filled state.
	for pos := 0; pos < assoc; pos++ {
		prefix := append(append([]int{}, fill...), pos)
		if err := verifyState(fmt.Sprintf("hit B%d after fill", pos), prefix); err != nil {
			return nil, err
		}
		check.Positions++
	}
	return check, nil
}
