// Package nanobench is a Go reproduction of "nanoBench: A Low-Overhead
// Tool for Running Microbenchmarks on x86 Systems" (Abel & Reineke, ISPASS
// 2020), built on a simulated x86 machine.
//
// The public API is organized around the Session type: a session is
// opened once with functional options, owns its scheduler and its result
// cache, and evaluates one or many microbenchmark configurations under a
// context.Context, each on a simulated machine borrowed from the
// scheduler's process-wide pools:
//
//	s, _ := nanobench.Open(nanobench.WithCPU("Skylake"), nanobench.WithSeed(42))
//	res, _ := s.Run(ctx, nanobench.Config{
//		Code:     nanobench.MustAsm("mov R14, [R14]"),
//		CodeInit: nanobench.MustAsm("mov [R14], R14"),
//		Events:   nanobench.MustParseEvents("D1.01 MEM_LOAD_RETIRED.L1_HIT"),
//	})
//	fmt.Print(res) // Core cycles: 4.00, ...
//
// Families of configurations are generated declaratively with the Sweep
// builder and evaluated with Session.RunBatch (all results at once) or
// Session.Stream (results in config order as they complete; cancelling
// the context returns promptly with the completed prefix). Results are
// typed — a slice of Metric values carrying the event specification, the
// aggregated value, and the raw per-run samples — and serialize with
// Result.MarshalJSON and Result.AppendCSV.
//
// The facade sits over the internal implementation (see
// docs/ARCHITECTURE.md for the layer map and the invariant each layer
// guarantees):
//
//   - internal/sim/* — the simulated hardware (out-of-order core, caches,
//     replacement policies, PMU, physical memory)
//   - internal/x86 — assembler, encoder, decoder, instruction table
//   - internal/nano — nanoBench itself (code generation, runner)
//   - internal/sched — deterministic parallel batch execution with a
//     content-addressed, optionally LRU-bounded result cache
//   - internal/server — the HTTP/JSON front end behind cmd/nanobenchd
//     (wire contract in docs/API.md)
//   - internal/cachetools, internal/instbench — the paper's case studies
//   - internal/uarch — the ten Table I machine models
//
// Config and Sweep carry JSON codecs (strict field checking, assembly
// or base64 code, events in configuration-file syntax), so the same
// types describe an evaluation locally and over the wire; ParseMode and
// ParseAggregate decode the wire format's enum names.
//
// The v1 free functions (NewMachine, NewRunner, RunBatch,
// RunBatchStream) were removed after their deprecation horizon (see
// CHANGES.md); a Session provides every capability they had, and
// Session.NewRunner/Session.NewMachine cover the tools that drive a
// machine directly.
package nanobench

import (
	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sched"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// Re-exported core types; see the internal packages for full
// documentation.
type (
	// Machine is a simulated x86 system.
	Machine = machine.Machine
	// Runner evaluates microbenchmarks on a machine.
	Runner = nano.Runner
	// Config describes one microbenchmark evaluation.
	Config = nano.Config
	// Result holds the typed, serializable counter values of one
	// evaluation.
	Result = nano.Result
	// Metric is one measured counter of a Result: name, event
	// specification, aggregated value, and raw per-run samples.
	Metric = nano.Metric
	// EventSpec selects a performance event to measure.
	EventSpec = perfcfg.EventSpec
	// Aggregate selects how per-run measurements are combined (Min,
	// Median, Avg).
	Aggregate = nano.Aggregate
	// CPU is a machine model from the catalog.
	CPU = uarch.CPU
	// Mode selects user- or kernel-space operation.
	Mode = machine.Mode
)

// Privilege modes for WithMode.
const (
	User   = machine.User
	Kernel = machine.Kernel
)

// Aggregate functions for Config.Aggregate.
const (
	Min    = nano.Min
	Median = nano.Median
	Avg    = nano.Avg
)

// The tool's per-config defaults, applied by Config.Canonical (see
// internal/nano); cmd/nanobench inherits them for its flag defaults.
const (
	DefaultUnrollCount   = nano.DefaultUnrollCount
	DefaultLoopCount     = nano.DefaultLoopCount
	DefaultNMeasurements = nano.DefaultNMeasurements
	DefaultWarmUpCount   = nano.DefaultWarmUpCount
)

// NoWarmUp as a Config.WarmUpCount requests explicitly zero warm-up runs
// even under a session-wide WithWarmUp default.
const NoWarmUp = nano.NoWarmUp

// CSVHeader is the header row matching Result.AppendCSV's records.
const CSVHeader = nano.CSVHeader

// Asm assembles Intel-syntax source into microbenchmark machine code.
func Asm(src string) ([]byte, error) { return nano.Asm(src) }

// MustAsm is Asm that panics on error.
func MustAsm(src string) []byte { return nano.MustAsm(src) }

// ParseMode parses a privilege-mode name ("user" or "kernel",
// case-insensitive) — the request-side decoder for the wire format's
// "mode" fields (docs/API.md).
func ParseMode(s string) (Mode, error) { return machine.ParseMode(s) }

// ParseAggregate parses an aggregate-function name ("min", "med",
// "avg") — the request-side decoder for the wire format's "aggregate"
// field (docs/API.md).
func ParseAggregate(s string) (Aggregate, error) { return nano.ParseAggregate(s) }

// ParseEvents parses a performance-counter configuration (Section III-J
// syntax: "EvtSel.Umask Name" lines).
func ParseEvents(text string) ([]EventSpec, error) { return perfcfg.Parse(text) }

// MustParseEvents is ParseEvents that panics on error.
func MustParseEvents(text string) []EventSpec { return perfcfg.MustParse(text) }

// CPUNames returns the catalog of machine models (the ten Intel CPUs of
// Table I plus AMD Zen).
func CPUNames() string { return uarch.NameList() }

// Table1 returns the ten Intel CPU models of the paper's Table I.
func Table1() []CPU { return uarch.Table1() }

// Batch execution (internal/sched): sweeps of many configurations fan out
// across a pool of independently-seeded simulated machines with a
// content-addressed result cache. See the sched package documentation for
// the seeding/determinism contract.
type (
	// BatchJob is one (CPU, mode, Config) evaluation in a heterogeneous
	// batch; build an Executor via NewBatchExecutor to run them.
	BatchJob = sched.Job
	// BatchItem is one delivered result of a streaming batch.
	BatchItem = sched.Item
	// BatchOptions configures a batch executor.
	BatchOptions = sched.Options
	// BatchExecutor runs batches of jobs deterministically.
	BatchExecutor = sched.Executor
	// BatchCache memoizes batch results by content key.
	BatchCache = sched.Cache
	// BatchCacheInfo is a snapshot of a cache's occupancy and lookup
	// counters.
	BatchCacheInfo = sched.CacheInfo
	// BatchKey is a SHA-256 content address: a cache key, or the alias
	// a stored rendering is filed under (Session.RunRendered).
	BatchKey = sched.Key
)

// DefaultBatchSeed is the root seed sessions derive per-job machine
// seeds from; it matches the seed the repository's experiments use.
const DefaultBatchSeed = 42

// NewBatchCache builds an empty, unbounded content-addressed result
// cache, shareable between sessions via WithCache.
func NewBatchCache() *BatchCache { return sched.NewCache() }

// NewBatchCacheLRU builds a result cache bounded to maxEntries
// evaluations with least-recently-used eviction (0 or negative:
// unbounded). Long-running services sharing one cache across sessions —
// like cmd/nanobenchd — should always set a bound.
func NewBatchCacheLRU(maxEntries int) *BatchCache { return sched.NewCacheLRU(maxEntries) }

// NewBatchExecutor builds a batch executor for heterogeneous jobs (mixed
// CPU models or privilege modes in one batch); homogeneous work is easier
// to run through a Session.
func NewBatchExecutor(opts BatchOptions) *BatchExecutor { return sched.New(opts) }

// PauseCounting and ResumeCounting are the magic byte sequences that
// pause/resume performance counting when embedded in benchmark code
// (kernel mode only; Section III-I).
var (
	PauseCounting  = nano.PauseCountingBytes
	ResumeCounting = nano.ResumeCountingBytes
)
