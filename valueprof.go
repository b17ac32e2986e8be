// Package valueprof is a from-scratch reproduction of "Value Profiling"
// (Calder, Feller, Eustace, MICRO-30 1997; extended as Feller's UCSD
// thesis "Value Profiling for Instructions and Memory Locations",
// TR CS98-581).
//
// It provides, as one coherent toolkit:
//
//   - a 64-bit RISC substrate (VRISC): ISA, assembler, MiniC compiler,
//     and a cycle-costed interpreter with instrumentation hooks;
//   - an ATOM-like instrumentation layer for walking a program's
//     procedures/blocks/instructions and attaching analysis routines;
//   - the paper's contribution: Top-N-Value tables, the invariance /
//     LVP / %zero / Diff(L/I) metrics, full-profile ground truth, and
//     convergent (intelligent) sampling;
//   - the profiled-entity extensions (memory locations, procedure
//     parameters) and the downstream uses the paper motivates
//     (code specialization, value-predictor filtering, memoization);
//   - the benchmark suite and the experiment harness that regenerates
//     each of the paper's tables and figures (see DESIGN.md and
//     EXPERIMENTS.md).
//
// This package is the public facade: it re-exports the stable surface
// of the internal packages so downstream users have a single import.
//
//	prog, _ := valueprof.CompileMiniC(src)
//	vp, _ := valueprof.NewValueProfiler(valueprof.DefaultOptions())
//	res, _ := valueprof.Run(prog, input, vp)
//	profile := vp.Profile()
package valueprof

import (
	"context"
	"io"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/depprof"
	"valueprof/internal/difftest"
	"valueprof/internal/experiments"
	"valueprof/internal/isa"
	"valueprof/internal/memprof"
	"valueprof/internal/minic"
	"valueprof/internal/parallel"
	"valueprof/internal/paramprof"
	"valueprof/internal/procprof"
	"valueprof/internal/progen"
	"valueprof/internal/program"
	"valueprof/internal/regprof"
	"valueprof/internal/specialize"
	"valueprof/internal/trace"
	"valueprof/internal/trivprof"
	"valueprof/internal/vm"
	"valueprof/internal/vpred"
	"valueprof/internal/workloads"
)

// ---- substrate ----

// Program is a loaded VRISC executable.
type Program = program.Program

// Proc is a procedure within a Program.
type Proc = program.Proc

// VM interprets a Program.
type VM = vm.VM

// RunResult summarizes one execution.
type RunResult = vm.Result

// Assemble builds a Program from VRISC assembly text.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// CompileMiniC builds a Program from MiniC source.
func CompileMiniC(src string) (*Program, error) { return minic.Compile(src) }

// Execute runs a program uninstrumented.
func Execute(p *Program, input []int64) (*RunResult, error) { return vm.Execute(p, input) }

// ---- instrumentation ----

// Tool is an ATOM-style instrumentation tool.
type Tool = atom.Tool

// Instrumenter exposes a program's structure to tools.
type Instrumenter = atom.Instrumenter

// Run instruments p with the given tools and executes it.
func Run(p *Program, input []int64, tools ...Tool) (*RunResult, error) {
	return atom.Run(p, input, false, tools...)
}

// ---- the paper's core ----

// TNVConfig configures a Top-N-Value table.
type TNVConfig = core.TNVConfig

// TNVTable is the paper's Top-N-Value table.
type TNVTable = core.TNVTable

// TNVEntry is one (value, count) pair.
type TNVEntry = core.TNVEntry

// FullProfile is the exact (ground-truth) value profile.
type FullProfile = core.FullProfile

// SiteStats is the per-site profile (TNV + LVP + zeros).
type SiteStats = core.SiteStats

// Profile is a completed value-profiling run.
type Profile = core.Profile

// Options configures a ValueProfiler.
type Options = core.Options

// ValueProfiler is the instruction value-profiling tool.
type ValueProfiler = core.ValueProfiler

// ConvergentConfig parameterizes intelligent sampling.
type ConvergentConfig = core.ConvergentConfig

// WeightedMetrics aggregates site metrics by execution weight.
type WeightedMetrics = core.WeightedMetrics

// NewTNV creates a Top-N-Value table.
func NewTNV(cfg TNVConfig) *TNVTable { return core.NewTNV(cfg) }

// DefaultTNVConfig is the paper's 10-entry, steady-top-half table.
func DefaultTNVConfig() TNVConfig { return core.DefaultTNVConfig() }

// DefaultOptions profiles all result-producing instructions.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultConvergentConfig is the baseline intelligent sampler.
func DefaultConvergentConfig() ConvergentConfig { return core.DefaultConvergentConfig() }

// NewValueProfiler creates the profiling tool.
func NewValueProfiler(opts Options) (*ValueProfiler, error) { return core.NewValueProfiler(opts) }

// ---- parallel profiling ----

// ParallelJob is one independent (workload, input, options) profiling
// run for the worker pool.
type ParallelJob = parallel.Job

// ParallelResult is one job's outcome: profile, run result, and any
// error, at the job's index.
type ParallelResult = parallel.Result

// RunParallel executes independent profiling jobs on at most workers
// goroutines (≤ 0 selects GOMAXPROCS); results come back in job order
// and are byte-identical to a serial run.
func RunParallel(ctx context.Context, workers int, jobs []ParallelJob) []ParallelResult {
	return parallel.Run(ctx, workers, jobs)
}

// FirstParallelError returns the lowest-index job error, or nil.
func FirstParallelError(results []ParallelResult) error { return parallel.FirstError(results) }

// ---- profile records ----

// ProfileRecord is the serialized (JSON) form of a profiling run.
type ProfileRecord = core.ProfileRecord

// MergeRecords combines two saved profile records of the same program.
func MergeRecords(a, b *ProfileRecord) (*ProfileRecord, error) {
	return core.MergeRecords(a, b)
}

// ---- profiled-entity extensions ----

// MemProfiler profiles memory locations.
type MemProfiler = memprof.MemProfiler

// NewMemProfiler creates a memory-location profiler.
func NewMemProfiler(opts memprof.Options) *MemProfiler { return memprof.New(opts) }

// ParamProfiler profiles procedure parameters.
type ParamProfiler = paramprof.ParamProfiler

// NewParamProfiler creates a parameter profiler.
func NewParamProfiler(opts paramprof.Options) *ParamProfiler { return paramprof.New(opts) }

// RegProfiler profiles values written to each architectural register.
type RegProfiler = regprof.Profiler

// NewRegProfiler creates a register-value profiler.
func NewRegProfiler(tnv TNVConfig, trackFull bool) *RegProfiler { return regprof.New(tnv, trackFull) }

// DepProfiler profiles store→load memory communication.
type DepProfiler = depprof.DepProfiler

// NewDepProfiler creates a memory-dependence profiler.
func NewDepProfiler(opts depprof.Options) *DepProfiler { return depprof.New(opts) }

// TrivProfiler profiles trivial arithmetic computations.
type TrivProfiler = trivprof.Profiler

// NewTrivProfiler creates a trivial-computation profiler.
func NewTrivProfiler() *TrivProfiler { return trivprof.New() }

// ProcProfiler attributes cycles to procedures.
type ProcProfiler = procprof.Profiler

// NewProcProfiler creates a procedure-time profiler.
func NewProcProfiler() *ProcProfiler { return procprof.New() }

// ---- traces ----

// TraceWriter records a value trace.
type TraceWriter = trace.Writer

// TraceReader replays a value trace.
type TraceReader = trace.Reader

// NewTraceWriter starts a trace on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// NewTraceReader opens a recorded trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// Inst is one decoded VRISC instruction.
type Inst = isa.Inst

// NewTraceCollector returns a Tool recording the value stream of the
// selected instructions (nil filter = all result-producing).
func NewTraceCollector(w *TraceWriter, filter func(Inst) bool) Tool {
	return trace.NewCollector(w, filter)
}

// ---- uses of the profile ----

// SpecializeInfo reports what code specialization accomplished.
type SpecializeInfo = specialize.Info

// Specialize clones prog with a guarded, constant-folded version of the
// named procedure under the assumption reg == value at entry.
func Specialize(prog *Program, procName string, reg uint8, value int64) (*Program, *SpecializeInfo, error) {
	return specialize.Specialize(prog, procName, reg, value)
}

// SpecializeMultiInfo reports a multi-value specialization.
type SpecializeMultiInfo = specialize.MultiInfo

// SpecializeMulti installs one specialized body per top value with a
// guard chain (the TNV table's top-N values as a multi-way dispatch).
func SpecializeMulti(prog *Program, procName string, reg uint8, values []int64) (*Program, *SpecializeMultiInfo, error) {
	return specialize.SpecializeMulti(prog, procName, reg, values)
}

// Predictor is a value predictor (last-value, stride, 2-level, hybrid).
type Predictor = vpred.Predictor

// PredictorSuite returns the standard five-predictor comparison set.
func PredictorSuite(logSize int) []Predictor { return vpred.StandardSuite(logSize) }

// ---- differential testing ----

// GenConfig seeds the deterministic VRISC program generator.
type GenConfig = progen.Config

// GenSpec is a generated program's abstract form: shrinkable, and
// buildable into a verified Program.
type GenSpec = progen.Spec

// Generate builds a random but always-verifiable program spec from a
// seed; the same seed yields the same spec on every Go release.
func Generate(cfg GenConfig) GenSpec { return progen.Generate(cfg) }

// BuildSpec assembles a generated spec into an executable Program.
func BuildSpec(spec *GenSpec) (*Program, error) { return progen.Build(spec) }

// InputForSpec derives a deterministic input vector for a generated
// spec (variant selects among distinct inputs).
func InputForSpec(spec *GenSpec, variant uint64) []int64 { return progen.InputFor(spec, variant) }

// DiffOptions configures the metamorphic differential-testing harness.
type DiffOptions = difftest.Options

// DiffReport is one program's harness verdict; Failed reports whether
// any property diverged from the naive reference oracle.
type DiffReport = difftest.Report

// DiffCheck runs every metamorphic property of the optimized profiler
// against the naive reference oracle on one program (see
// docs/difftest.md).
func DiffCheck(p *Program, name string, input, input2 []int64, opts DiffOptions) *DiffReport {
	return difftest.Check(p, name, input, input2, opts)
}

// ---- workloads and experiments ----

// Workload is one benchmark program with test/train inputs.
type Workload = workloads.Workload

// Workloads returns the benchmark suite.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName returns one benchmark.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Experiment regenerates one of the paper's exhibits.
type Experiment = experiments.Experiment

// ExperimentConfig selects workloads and sweep depth.
type ExperimentConfig = experiments.Config

// ExperimentResult is a rendered exhibit with its shape checks.
type ExperimentResult = experiments.Result

// Experiments returns all registered experiments (e1–e13).
func Experiments() []*Experiment { return experiments.All() }

// ExperimentByID returns one experiment.
func ExperimentByID(id string) (*Experiment, error) { return experiments.ByID(id) }
