// Command nbbench is the repository's end-to-end benchmark: the §V
// instruction sweep, the §VI cache campaigns and nanobenchd, each driven
// through the system's public entry points with inputs generated from a
// seed, every output checked against the simulator's ground truth.
//
// Usage (from this directory; run.sh builds and runs it from the
// repository root):
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1|FILE] [-repeat N]
//
// Each workload runs in child processes of its own, so set-up time and
// peak memory are the workload's own. The untraced run (-trace 0) starts
// childRuns children one after another, each setting up and then
// measuring for a childRuns-th of -seconds on its own input stream of
// the seed, and prints every end-to-end metric over all of them. The
// traced run (-trace 1, or a file name for the spans) is one child that
// prints every per-layer metric and writes the spans. The last line of
// output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. -repeat N runs each workload N times
// with the same seed and prints each end-to-end metric's median and
// interquartile spread against its bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nanobench/internal/sim/policy"
)

// childRuns is how many child processes an untraced run starts. Each sets
// the workload up and measures it; setup_s and rss_peak_mb are medians
// over the children, which keeps a single slow start or an unlucky
// garbage-collection peak from deciding them.
const childRuns = 4

// startEnv passes the parent's clock reading at child start, so set-up
// time includes process start.
const startEnv = "NBBENCH_START_NS"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	repeat   int
	// child, when set, makes this process a measuring child that runs for
	// that long, on input stream stream.
	child  time.Duration
	stream int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.StringVar(&o.trace, "trace", "0", `0 for the untraced run, 1 or a spans file name for the traced run`)
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times with the same seed and report spreads")
	flag.DurationVar(&o.child, "child", 0, "internal: run as a measuring child for this long")
	flag.IntVar(&o.stream, "stream", 0, "internal: the measuring child's input stream")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.child > 0 {
		return runChild(ctx, selected[0], o)
	}
	if o.repeat > 0 {
		return repeat(ctx, selected, o)
	}
	for _, w := range selected {
		res, err := runParent(ctx, w, o.seed, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// spansPath resolves -trace to the spans file of workload w, or "" for
// an untraced run.
func spansPath(trace string, w workload, several bool) (string, error) {
	switch trace {
	case "0":
		return "", nil
	case "1":
		return filepath.Join(".bench_build", "spans-"+w.name+".json"), nil
	case "":
		return "", errors.New("-trace: want 0, 1 or a file name")
	}
	if several {
		return strings.TrimSuffix(trace, ".json") + "-" + w.name + ".json", nil
	}
	return trace, nil
}

// childReport is what a child process prints: one JSON line.
type childReport struct {
	SetupS    float64 `json:"setup_s"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Untraced runs: the work done in the timed loop, its duration, the
	// finite operation latencies (ms) by class, and by class how many
	// operations failed outright (+Inf latencies, which JSON cannot
	// carry).
	Work     float64              `json:"work,omitempty"`
	ElapsedS float64              `json:"elapsed_s,omitempty"`
	Lat      map[string][]float64 `json:"lat,omitempty"`
	Errored  map[string]int       `json:"errored,omitempty"`
	// Traced runs: the per-layer metrics and notes.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Lines   []string           `json:"lines,omitempty"`
}

// runChild sets up the workload, measures it, and prints its report.
func runChild(ctx context.Context, w workload, o options) error {
	start := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64); err == nil {
		start = time.Unix(0, ns)
	}
	par := runtime.NumCPU()
	inst, err := w.open(ctx, o.seed, par)
	if err != nil {
		return err
	}
	defer inst.close()
	rep := childReport{SetupS: time.Since(start).Seconds(), Digest: inst.digest()}
	path, err := spansPath(o.trace, w, false)
	if err != nil {
		return err
	}
	if path != "" {
		if err := measureTraced(ctx, w, inst, o.seed, par, o.child, path, &rep); err != nil {
			return err
		}
		for name, v := range rep.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// JSON has no encoding for these: a metric without
				// samples, or a median reached by failed operations.
				rep.Lines = append(rep.Lines, fmt.Sprintf("%s is %v: counted as a failure", name, v))
				rep.Metrics[name] = math.MaxFloat64
				rep.Failed++
			}
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	rec, err := drive(ctx, inst, o.child, o.stream, nil)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = rec.attempted, rec.failed
	rep.Work, rep.ElapsedS = rec.work, rec.elapsed.Seconds()
	rep.Lat, rep.Errored = map[string][]float64{}, map[string]int{}
	for class, xs := range rec.lat {
		for _, x := range xs {
			if math.IsInf(x, 1) {
				rep.Errored[class]++
			} else {
				rep.Lat[class] = append(rep.Lat[class], x)
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// summarize computes the end-to-end metrics a workload's children
// measured together, with the human-readable lines that name them as the
// workload's users know them.
func summarize(w workload, rec *recorder) (map[string]float64, []string) {
	workPerS := rec.work / rec.elapsed.Seconds()
	all := rec.all()
	metrics := map[string]float64{"work_per_s": workPerS, "op_p50_ms": median(all)}
	var lines []string
	line := func(name string, v float64, unit, note string) {
		lines = append(lines, fmt.Sprintf("%-22s %14.6g %-10s %s", name, v, unit, note))
	}
	line("work_per_s", workPerS, w.unit+"/s", fmt.Sprintf("(%.0f %s in %.2f s)", rec.work, w.unit, rec.elapsed.Seconds()))
	line("op_p50_ms", median(all), "ms", fmt.Sprintf("(n=%d)", len(all)))
	switch w.name {
	case "insn-table":
		line("insn_configs_per_s", workPerS, "configs/s", "")
	case "policy-campaign":
		line("campaign_pass_p50_s", median(rec.lat["pass"])/1000, "s", fmt.Sprintf("(n=%d)", len(rec.lat["pass"])))
	case "set-dueling":
		line("dueling_sets_per_s", workPerS, "sets/s", "")
	case "serve-mixed":
		line("serve_rps", workPerS, "req/s", "")
	}
	classes := make([]string, 0, len(rec.lat))
	for c := range rec.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := rec.lat[c]
		note := fmt.Sprintf("(n=%d)", len(xs))
		if p, v, ok := tail(xs); ok {
			note = fmt.Sprintf("(n=%d; p%g %.4g ms, the highest percentile with %d samples beyond)", len(xs), p, v, minBeyond)
		}
		line(c+"_p50_ms", median(xs), "ms", note)
	}
	line("fail_ratio", float64(rec.failed)/float64(rec.attempted), "ratio",
		fmt.Sprintf("(%d of %d operations)", rec.failed, rec.attempted))
	return metrics, lines
}

// measureTraced runs the traced variant: the headline loop untraced and
// traced for a quarter of d each (trace.overhead_ratio is the traced time
// per unit of work over the untraced one), then the bottom-up layer
// probes. The spans are written to path.
func measureTraced(ctx context.Context, w workload, inst instance, seed int64, par int, d time.Duration, path string, rep *childReport) error {
	fallbacks := policy.EngineFallbacks()
	tr := newTracer()
	plain, err := drive(ctx, inst, d/4, 0, nil)
	if err != nil {
		return err
	}
	traced, err := drive(ctx, inst, d/4, 0, tr)
	if err != nil {
		return err
	}
	from := time.Since(tr.t0).Nanoseconds()
	p, err := probeLayers(ctx, seed, par, tr)
	if err != nil {
		return err
	}
	var probeSpans []Span
	for _, s := range tr.snapshot() {
		if s.Start >= from {
			probeSpans = append(probeSpans, s)
		}
	}
	p.summarize(probeSpans)
	perUnit := func(r *recorder) float64 { return r.elapsed.Seconds() / r.work }
	p.vals["trace.overhead_ratio"] = perUnit(traced) / perUnit(plain)
	p.vals["sim.policy.fallbacks"] = float64(policy.EngineFallbacks() - fallbacks)
	p.check(p.vals["sim.policy.fallbacks"] == 0, "policy engine fell back to the reference engine")
	if err := tr.write(path, w.name, seed); err != nil {
		return err
	}
	rep.Attempted = plain.attempted + traced.attempted + p.attempted
	rep.Failed = plain.failed + traced.failed + p.failed
	rep.Metrics = p.vals
	for _, m := range perLayer {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-32s %14.6g %s", m.Name, p.vals[m.Name], m.Unit))
	}
	rep.Lines = append(rep.Lines, p.notes...)
	rep.Lines = append(rep.Lines, fmt.Sprintf("spans: %d written to %s", len(tr.snapshot()), path))
	return nil
}

// spawn runs this program as a child measuring for d on input stream
// stream and returns its report and peak resident set in MB.
func spawn(ctx context.Context, w workload, seed int64, d time.Duration, stream int, trace string) (*childReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", d.String(), "-stream", strconv.Itoa(stream),
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), startEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("child report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no resource usage for the child on this platform")
	}
	return &rep, float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// result is one run of one workload, ready to print.
type result struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	digest    string
	attempted int
	failed    int
	setups    []float64
	rss       []float64
	metrics   map[string]float64
	lines     []string
}

// runParent runs one workload: one traced child, or childRuns untraced
// children whose measurements it pools.
func runParent(ctx context.Context, w workload, seed int64, o options) (*result, error) {
	path, err := spansPath(o.trace, w, o.workload == "all")
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	res := &result{workload: w.name, seed: seed, seconds: o.seconds, traced: path != ""}
	if res.traced {
		rep, _, err := spawn(ctx, w, seed, d, 0, path)
		if err != nil {
			return nil, err
		}
		res.digest, res.attempted, res.failed = rep.Digest, rep.Attempted, rep.Failed
		res.metrics, res.lines = rep.Metrics, rep.Lines
		return res, nil
	}
	rec := newRecorder()
	for k := 0; k < childRuns; k++ {
		rep, rss, err := spawn(ctx, w, seed, d/childRuns, k, "0")
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, rep.SetupS)
		res.rss = append(res.rss, rss)
		if k == 0 {
			res.digest = rep.Digest
		} else if rep.Digest != res.digest {
			// The same seed must give the same warm-up results.
			res.lines = append(res.lines, fmt.Sprintf("child %d: digest %s differs from %s", k, rep.Digest, res.digest))
			res.failed++
		}
		rec.work += rep.Work
		rec.elapsed += time.Duration(rep.ElapsedS * float64(time.Second))
		rec.attempted += rep.Attempted
		rec.failed += rep.Failed
		for class, xs := range rep.Lat {
			rec.lat[class] = append(rec.lat[class], xs...)
		}
		for class, n := range rep.Errored {
			for ; n > 0; n-- {
				rec.lat[class] = append(rec.lat[class], math.Inf(1))
			}
		}
	}
	metrics, lines := summarize(w, rec)
	metrics["setup_s"] = median(res.setups)
	metrics["rss_peak_mb"] = median(res.rss)
	res.metrics, res.lines = metrics, append(lines, res.lines...)
	res.attempted += rec.attempted
	res.failed += rec.failed
	return res, nil
}

// print writes the human-readable report, then the JSON result line.
func (r *result) print(f *os.File) error {
	mode := "untraced"
	defs := endToEnd
	if r.traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(f, "# nbbench %s seed=%d seconds=%d %s workers=%d digest=%s\n",
		r.workload, r.seed, r.seconds, mode, runtime.NumCPU(), r.digest)
	if !r.traced {
		fmt.Fprintf(f, "%-22s %14.6g %-10s (median over %d children: %s)\n", "setup_s", r.metrics["setup_s"], "s",
			len(r.setups), strings.Trim(fmt.Sprint(r.setups), "[]"))
		fmt.Fprintf(f, "%-22s %14.6g %-10s (median peak over %d children: %s)\n", "rss_peak_mb", r.metrics["rss_peak_mb"], "MB",
			len(r.rss), strings.Trim(fmt.Sprint(r.rss), "[]"))
	}
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range defs {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	return json.NewEncoder(f).Encode(out)
}

// repeat runs every selected workload o.repeat times with the same seed,
// so the inputs are identical and only the host varies, and reports each
// end-to-end metric's median, quartiles and spread (interquartile range
// over median) against its bound.
func repeat(ctx context.Context, selected []workload, o options) error {
	if o.trace != "0" {
		return errors.New("-repeat measures the untraced run; use -trace 0")
	}
	fmt.Printf("# nbbench -repeat %d -seconds %d -seed %d, workers=%d\n", o.repeat, o.seconds, o.seed, runtime.NumCPU())
	fmt.Println("# spread = (Q3-Q1)/median; '!' marks a spread above the bound, '~' one above a third of it")
	for _, w := range selected {
		vals := map[string][]float64{}
		failed := 0
		for r := 0; r < o.repeat; r++ {
			res, err := runParent(ctx, w, o.seed, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed += res.failed
			var parts []string
			for _, m := range endToEnd {
				vals[m.Name] = append(vals[m.Name], res.metrics[m.Name])
				parts = append(parts, fmt.Sprintf("%s=%.6g", m.Name, res.metrics[m.Name]))
			}
			fmt.Printf("%-16s run=%-3d failed=%d/%d %s\n", w.name, r+1, res.failed, res.attempted, strings.Join(parts, " "))
		}
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(vals[m.Name])
			sp := (q3 - q1) / q2
			mark := " "
			if sp > m.Bound {
				mark = "!"
			} else if sp > m.Bound/3 {
				mark = "~"
			}
			fmt.Printf("%-16s %-12s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %6.2f%% bound %4.0f%% %s\n",
				w.name, m.Name, q2, q1, q3, 100*sp, 100*m.Bound, mark)
		}
		fmt.Printf("%-16s failed operations over all runs: %d\n", w.name, failed)
	}
	return nil
}
