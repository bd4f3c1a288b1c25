package experiments

import (
	"context"
	"fmt"
	"io"
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

// campaignTarget resolves the probed (slice, set) and the model's injected
// ground-truth policy for one cell, matching Table1's choices: L1 set 37,
// L2 set 300, L3 set 600 — or the deterministic leader set 520 on
// adaptive models.
func campaignTarget(cpu uarch.CPU, level cachetools.Level) (slice, set int, expected string) {
	switch level {
	case cachetools.L1:
		return 0, 37, cpu.L1Policy
	case cachetools.L2:
		return 0, 300, cpu.L2Policy
	default:
		if cpu.L3Adaptive != nil {
			return leaderSlice(cpu), 520, cpu.L3Adaptive.PolicyA
		}
		return 0, 600, cpu.L3Policy
	}
}

// PolicyCampaign runs the campaign. step, if non-nil, is called once per
// finished cell and age row (the jobs API forwards it to the job's
// progress counter). Cells fan out across Workers; each age row instead
// shards its independent (block, fresh-count) groups across sibling tools
// (cachetools.Tool.Workers/NewSibling), keeping the machines saturated
// when the campaign tail narrows to a few adaptive models.
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
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type cellSpec struct {
		cpu   uarch.CPU
		level cachetools.Level
	}
	specs := make([]cellSpec, 0, len(cpus)*len(levels))
	for _, cpu := range cpus {
		for _, level := range levels {
			specs = append(specs, cellSpec{cpu, level})
		}
	}
	cells := make([]CampaignCell, len(specs))
	err = sched.ForEach(len(specs), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := specs[i]
		cpu := sp.cpu
		var l lender
		defer l.release()
		tool, err := l.tool(cpu.Name)
		if err != nil {
			return err
		}
		slice, set, expected := campaignTarget(cpu, sp.level)
		res, err := tool.InferPolicyContext(ctx, sp.level, slice, set, cachetools.InferOptions{
			MaxSequences: maxSeq, Seed: seed,
		})
		if err != nil {
			return err
		}
		name := "probabilistic"
		if len(res.Classes) > 0 {
			name, _ = res.Unique()
		}
		cells[i] = CampaignCell{
			CPU:       cpu.Name,
			Level:     sp.level.String(),
			Slice:     slice,
			Set:       set,
			Policy:    name,
			OK:        policiesEquivalent(name, expected, tool.Assoc(sp.level)),
			Sequences: res.SequencesUsed,
		}
		if step != nil {
			step()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	result := &CampaignResult{Cells: cells}
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
	prefix := cachetools.SeqOf(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	for _, cpu := range cpus {
		if cpu.L3Adaptive == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, err := campaignAgeRow(cpu, workers, prefix, maxFresh, ageStep, trials)
		if err != nil {
			return nil, err
		}
		result.AgeRows = append(result.AgeRows, row)
		if step != nil {
			step()
		}
	}
	return result, nil
}

// campaignAgeRow measures one adaptive model's stochastic-leader age
// graph, sharding its groups over workers sibling tools; every runner is
// returned to the pool once AgeGraphFor returns.
func campaignAgeRow(cpu uarch.CPU, workers int, prefix cachetools.Seq, maxFresh, step, trials int) (CampaignAgeRow, error) {
	var l lender
	defer l.release()
	tool, err := l.tool(cpu.Name)
	if err != nil {
		return CampaignAgeRow{}, err
	}
	tool.Workers = workers
	tool.NewSibling = func() (*cachetools.Tool, error) { return l.tool(cpu.Name) }
	slice, set := bLeaderSlice(cpu), 780
	g, err := tool.AgeGraphFor(cachetools.L3, slice, set, prefix, maxFresh, step, trials)
	if err != nil {
		return CampaignAgeRow{}, err
	}
	return CampaignAgeRow{CPU: cpu.Name, Slice: slice, Set: set, Graph: g}, nil
}

// FormatCampaign renders a campaign result as the experiments' text
// report format.
func FormatCampaign(w io.Writer, res *CampaignResult) {
	fmt.Fprintln(w, "## Policy-inference campaign")
	fmt.Fprintf(w, "%-12s %-5s %-6s %-5s %-4s %-22s %s\n", "CPU", "Level", "Slice", "Set", "OK", "Policy", "Seqs")
	for _, c := range res.Cells {
		mark := "✗"
		if c.OK {
			mark = "✓"
		}
		fmt.Fprintf(w, "%-12s %-5s %-6d %-5d %-4s %-22s %d\n",
			c.CPU, c.Level, c.Slice, c.Set, mark, c.Policy, c.Sequences)
	}
	for _, a := range res.AgeRows {
		fmt.Fprintf(w, "age graph %s slice %d set %d (trials %d):\n%s",
			a.CPU, a.Slice, a.Set, a.Graph.Trials, a.Graph.Format())
	}
}
