package experiments

import (
	"context"
	"fmt"
	"runtime"

	"nanobench/internal/cachetools"
	"nanobench/internal/sched"
	"nanobench/internal/uarch"
)

// Campaign-scale policy inference (Section VI): one sharded run of the
// Table I replacement-policy inference over every requested uarch model
// and cache level, optionally extended with Figure-1-style age graphs of
// the adaptive models' stochastic leader sets. Each (CPU, level) cell
// borrows its own runner from sched's machine pool, reset to the fixed
// experiment seed, and builds its own tool on it, so a cell's outcome is
// a pure function of the cell — never of scheduling or of what the
// machine ran before — and the campaign is byte-identical at any worker
// count. The jobs API exposes campaigns as the "campaign" job kind.

// CampaignOptions selects the campaign's extent. Zero values mean: every
// Table I model, all three levels, the Table I sequence budget and seed,
// the package worker default, and no age graphs.
type CampaignOptions struct {
	// CPUs are uarch model names; empty means every Table I model.
	CPUs []string
	// Levels restricts the probed cache levels; empty means L1, L2, L3.
	Levels []cachetools.Level
	// MaxSequences is the per-cell inference budget (default 120).
	MaxSequences int
	// Seed is the inference sequence-generator seed (default Seed).
	Seed int64
	// Workers bounds the fan-out; 0 falls back to the package Workers
	// variable, then to runtime.NumCPU().
	Workers int
	// AgeGraphs adds, for each adaptive model in the selection, an age
	// graph of its stochastic L3 leader set (set 780).
	AgeGraphs bool
	// AgeMaxFresh / AgeStep / AgeTrials size the age-graph rows
	// (defaults 64 / 16 / 8).
	AgeMaxFresh, AgeStep, AgeTrials int
}

// CampaignCell is one (CPU, level) inference outcome.
type CampaignCell struct {
	CPU       string `json:"cpu"`
	Level     string `json:"level"`
	Slice     int    `json:"slice"`
	Set       int    `json:"set"`
	Policy    string `json:"policy"`
	OK        bool   `json:"ok"`
	Sequences int    `json:"sequences"`
}

// CampaignAgeRow is one adaptive model's stochastic-leader age graph.
type CampaignAgeRow struct {
	CPU   string               `json:"cpu"`
	Slice int                  `json:"slice"`
	Set   int                  `json:"set"`
	Graph *cachetools.AgeGraph `json:"graph"`
}

// CampaignResult is a campaign's full outcome, in deterministic order:
// cells by (CPU catalog order, level), age rows by CPU catalog order.
type CampaignResult struct {
	Cells   []CampaignCell   `json:"cells"`
	AgeRows []CampaignAgeRow `json:"age_rows,omitempty"`
}

// CampaignSize returns the number of progress steps a campaign with these
// options performs (one per cell, one per age row), so job submitters can
// size the progress denominator before running anything.
func CampaignSize(opt CampaignOptions) (int, error) {
	cpus, err := campaignCPUs(opt.CPUs)
	if err != nil {
		return 0, err
	}
	levels := campaignLevels(opt.Levels)
	n := len(cpus) * len(levels)
	if opt.AgeGraphs {
		for _, cpu := range cpus {
			if cpu.L3Adaptive != nil {
				n++
			}
		}
	}
	return n, nil
}

func campaignCPUs(names []string) ([]uarch.CPU, error) {
	if len(names) == 0 {
		return uarch.Table1(), nil
	}
	cpus := make([]uarch.CPU, len(names))
	for i, n := range names {
		cpu, err := uarch.ByName(n)
		if err != nil {
			return nil, err
		}
		cpus[i] = cpu
	}
	return cpus, nil
}

func campaignLevels(levels []cachetools.Level) []cachetools.Level {
	if len(levels) == 0 {
		return []cachetools.Level{cachetools.L1, cachetools.L2, cachetools.L3}
	}
	return levels
}

// ParseLevels converts wire-format level names ("L1", "L2", "L3") to
// cache levels, for callers (the server's campaign job) that accept
// campaign selections as JSON.
func ParseLevels(names []string) ([]cachetools.Level, error) {
	out := make([]cachetools.Level, len(names))
	for i, n := range names {
		switch n {
		case "L1":
			out[i] = cachetools.L1
		case "L2":
			out[i] = cachetools.L2
		case "L3":
			out[i] = cachetools.L3
		default:
			return nil, fmt.Errorf(`unknown cache level %q (want "L1", "L2", or "L3")`, n)
		}
	}
	return out, nil
}

// cell is one replacement-policy inference target: a model's cache level
// at one (slice, set), with the policy the model injects there.
type cell struct {
	cpu        uarch.CPU
	level      cachetools.Level
	slice, set int
	expected   string
}

// newCell returns the cell Table I and the campaign probe at a level: L1
// set 37, L2 set 300, L3 set 600 — or the deterministic leader set 520
// on adaptive models.
func newCell(cpu uarch.CPU, level cachetools.Level) cell {
	switch level {
	case cachetools.L1:
		return cell{cpu, level, 0, 37, cpu.L1Policy}
	case cachetools.L2:
		// L2 set 300 exists on every model (the older generations have
		// only 512 L2 sets) and is clear of the code region's lines.
		return cell{cpu, level, 0, 300, cpu.L2Policy}
	}
	if a := cpu.L3Adaptive; a != nil {
		return cell{cpu, level, rangeSlice(a.ARanges, 520), 520, a.PolicyA}
	}
	return cell{cpu, level, 0, 600, cpu.L3Policy}
}

// rangeSlice returns the slice of the first leader range covering set,
// or 0 when that range spans every slice or no range covers set.
func rangeSlice(ranges []uarch.SetRange, set int) int {
	for _, r := range ranges {
		if r.Lo <= set && set <= r.Hi {
			return max(r.Slice, 0)
		}
	}
	return 0
}

// inferCells runs the policy inference of every cell and returns the
// outcomes row by row. A row's cells all probe one model and run in order
// on one lent tool, so they share its memoized candidate signatures; the
// rows fan out across workers. step, if non-nil, is called once per
// finished cell.
func inferCells(ctx context.Context, rows [][]cell, maxSeq int, seed int64, workers int, step func()) ([][]CampaignCell, error) {
	out := make([][]CampaignCell, len(rows))
	err := sched.ForEach(len(rows), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var l lender
		defer l.release()
		tool, err := l.tool(rows[i][0].cpu.Name)
		if err != nil {
			return err
		}
		out[i] = make([]CampaignCell, len(rows[i]))
		for j, c := range rows[i] {
			res, err := tool.InferPolicyContext(ctx, c.level, c.slice, c.set, cachetools.InferOptions{
				MaxSequences: maxSeq, Seed: seed,
			})
			if err != nil {
				return err
			}
			name := "probabilistic"
			if len(res.Classes) > 0 {
				name, _ = res.Unique()
			}
			out[i][j] = CampaignCell{
				CPU:       c.cpu.Name,
				Level:     c.level.String(),
				Slice:     c.slice,
				Set:       c.set,
				Policy:    name,
				OK:        policiesEquivalent(name, c.expected, tool.Assoc(c.level)),
				Sequences: res.SequencesUsed,
			}
			if step != nil {
				step()
			}
		}
		return nil
	})
	return out, err
}

// PolicyCampaign runs the campaign. step, if non-nil, is called once per
// finished cell and age row (the jobs API forwards it to the job's
// progress counter). Cells fan out across Workers, each on its own tool;
// each age row instead shards its independent (block, fresh-count) groups
// across sibling tools (ageGraph), keeping the machines saturated when
// the campaign tail narrows to a few adaptive models.
func PolicyCampaign(ctx context.Context, opt CampaignOptions, step func()) (*CampaignResult, error) {
	cpus, err := campaignCPUs(opt.CPUs)
	if err != nil {
		return nil, err
	}
	levels := campaignLevels(opt.Levels)
	maxSeq := opt.MaxSequences
	if maxSeq <= 0 {
		maxSeq = 120
	}
	seed := opt.Seed
	if seed == 0 {
		seed = Seed
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = Workers
	}

	rows := make([][]cell, 0, len(cpus)*len(levels))
	for _, cpu := range cpus {
		for _, level := range levels {
			rows = append(rows, []cell{newCell(cpu, level)})
		}
	}
	cells, err := inferCells(ctx, rows, maxSeq, seed, workers, step)
	if err != nil {
		return nil, err
	}
	result := &CampaignResult{Cells: make([]CampaignCell, len(cells))}
	for i, row := range cells {
		result.Cells[i] = row[0]
	}
	if !opt.AgeGraphs {
		return result, nil
	}

	maxFresh, ageStep, trials := opt.AgeMaxFresh, opt.AgeStep, opt.AgeTrials
	if maxFresh <= 0 {
		maxFresh = 64
	}
	if ageStep <= 0 {
		ageStep = 16
	}
	if trials <= 0 {
		trials = 8
	}
	for _, cpu := range cpus {
		if cpu.L3Adaptive == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		slice, set := rangeSlice(cpu.L3Adaptive.BRanges, 780), 780
		g, err := ageGraph(cpu.Name, slice, set, workers, maxFresh, ageStep, trials)
		if err != nil {
			return nil, err
		}
		result.AgeRows = append(result.AgeRows, CampaignAgeRow{CPU: cpu.Name, Slice: slice, Set: set, Graph: g})
		if step != nil {
			step()
		}
	}
	return result, nil
}

// ageGraph measures the age graph of the prefix <WBINVD> B0..B11 in one
// L3 set (Section VI-C2, Figure 1) on a lent tool of the model. The
// (block, fresh-count) groups are independent (each restreams the
// simulated hierarchy first), so they shard across up to workers sibling
// tools (0 means runtime.NumCPU()), and the graph is byte-identical at
// any worker count. Every runner returns to the pool once the graph is
// measured.
func ageGraph(cpu string, slice, set, workers, maxFresh, step, trials int) (*cachetools.AgeGraph, error) {
	var l lender
	defer l.release()
	tool, err := l.tool(cpu)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	tool.Workers = workers
	tool.NewSibling = func() (*cachetools.Tool, error) { return l.tool(cpu) }
	prefix := cachetools.SeqOf(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	return tool.AgeGraphFor(cachetools.L3, slice, set, prefix, maxFresh, step, trials)
}
