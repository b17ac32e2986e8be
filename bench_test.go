package valueprof_test

// The benchmark harness: one testing.B benchmark per paper exhibit
// (experiments e1–e13 of DESIGN.md). Each benchmark regenerates its
// table/figure and prints it once, so
//
//	go test -bench=. -benchmem
//
// reproduces every row/series the paper reports (quick sweeps; run
// cmd/vexp without -quick for the full parameter grids). ns/op measures
// the harness itself: one full instrumented profiling pass per
// iteration.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	valueprof "valueprof"
)

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	e, err := valueprof.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := valueprof.ExperimentConfig{Quick: true}
	var res *valueprof.ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err = e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		fmt.Printf("\n%s\n", res.Summary())
	}
	for _, c := range res.Failed() {
		b.Errorf("shape check %s failed: %s", c.Name, c.Detail)
	}
	b.ReportMetric(float64(len(res.Checks)-len(res.Failed())), "checks-passed")
}

// BenchmarkE1Benchmarks — Table III.A.1: the suite, its two data sets,
// dynamic instruction counts.
func BenchmarkE1Benchmarks(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2LoadValues — Ch. V load table: LVP / Inv-Top / Inv-All /
// %zero over all loads, per benchmark.
func BenchmarkE2LoadValues(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3AllInstructions — Ch. V all-instruction table with the
// per-class breakdown.
func BenchmarkE3AllInstructions(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4TNVAccuracy — TNV estimate error vs full profiling across
// table sizes and clearing policies (ablation).
func BenchmarkE4TNVAccuracy(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5TestTrain — Table V.5: test vs train data sets and
// cross-input profile stability.
func BenchmarkE5TestTrain(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6Convergent — convergent profiling: duty cycle, modeled
// slowdown, and accuracy vs full-time profiling.
func BenchmarkE6Convergent(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7Histogram — the invariance-distribution figure
// (execution-weighted, non-accumulative buckets).
func BenchmarkE7Histogram(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8MemoryLocations — memory-location value invariance.
func BenchmarkE8MemoryLocations(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9Parameters — procedure-parameter invariance and
// specialization candidates.
func BenchmarkE9Parameters(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10Quantile — Table IV.1: the basic-block quantile table.
func BenchmarkE10Quantile(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11Specialize — Chapter X: the specialization case study
// (profile → specialize → guarded dispatch → verified speedup).
func BenchmarkE11Specialize(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE12Predictors — predictor hit rates (LVP/stride/2-level/
// hybrids) and profile-guided prediction filtering.
func BenchmarkE12Predictors(b *testing.B) { benchExperiment(b, "e12") }

// BenchmarkE13Memoize — memoization hit rates and net cycle savings for
// invariant-parameter procedures.
func BenchmarkE13Memoize(b *testing.B) { benchExperiment(b, "e13") }

// BenchmarkE14Sampling — convergent vs periodic/random/burst sampling
// at equal overhead (the thesis's random-sampling open question).
func BenchmarkE14Sampling(b *testing.B) { benchExperiment(b, "e14") }

// BenchmarkE15Dependence — store→load communication profiling and the
// value-checked rescheduling candidate set.
func BenchmarkE15Dependence(b *testing.B) { benchExperiment(b, "e15") }

// BenchmarkE16Trivial — trivial-computation profiling (Richardson).
func BenchmarkE16Trivial(b *testing.B) { benchExperiment(b, "e16") }

// BenchmarkE17Registers — register-file value invariance.
func BenchmarkE17Registers(b *testing.B) { benchExperiment(b, "e17") }

// BenchmarkE18AutoSpecialize — the automatic specialization sweep.
func BenchmarkE18AutoSpecialize(b *testing.B) { benchExperiment(b, "e18") }

// BenchmarkE19ProcTime — procedure cycle attribution.
func BenchmarkE19ProcTime(b *testing.B) { benchExperiment(b, "e19") }

// BenchmarkE20TableSize — predictor table-size sensitivity with and
// without profile-guided filtering.
func BenchmarkE20TableSize(b *testing.B) { benchExperiment(b, "e20") }

// BenchmarkE21Convergence — the invariance-convergence-over-time figure.
func BenchmarkE21Convergence(b *testing.B) { benchExperiment(b, "e21") }

// --- microbenchmarks of the profiling primitives themselves ---

// BenchmarkTNVAdd measures one TNVTable.Add on a 16-value cycle, wider
// than the 10-entry table, so updates mix hits with tail evictions.
// Add is the per-value entry point; profiled runs deliver values in
// batches through SiteStats.ObserveBatch, which handles head runs and
// tail evictions itself and calls Add for the rest (see
// BenchmarkObserveBatch in internal/core).
func BenchmarkTNVAdd(b *testing.B) {
	tab := valueprof.NewTNV(valueprof.DefaultTNVConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(int64(i & 15))
	}
}

// BenchmarkTNVAddSkewed measures TNV updates under a realistic skewed
// stream (hot value plus tail).
func BenchmarkTNVAddSkewed(b *testing.B) {
	tab := valueprof.NewTNV(valueprof.DefaultTNVConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int64(42)
		if i%3 == 0 {
			v = int64(i)
		}
		tab.Add(v)
	}
}

// BenchmarkUninstrumentedRun measures the bare VM on a workload, the
// baseline against which instrumentation overhead is judged.
func BenchmarkUninstrumentedRun(b *testing.B) {
	w, err := valueprof.WorkloadByName("mcsim")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := valueprof.Execute(prog, w.Test.Args)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.InstCount
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkFullProfilingRun measures the same workload under full-time
// value profiling of every result-producing instruction.
func BenchmarkFullProfilingRun(b *testing.B) {
	w, err := valueprof.WorkloadByName("mcsim")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp, err := valueprof.NewValueProfiler(valueprof.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := valueprof.Run(prog, w.Test.Args, vp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergentProfilingRun measures the same workload under the
// convergent sampler — the overhead reduction the paper is about.
func BenchmarkConvergentProfilingRun(b *testing.B) {
	w, err := valueprof.WorkloadByName("mcsim")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var duty float64
	for i := 0; i < b.N; i++ {
		cfg := valueprof.DefaultConvergentConfig()
		opts := valueprof.DefaultOptions()
		opts.Convergent = &cfg
		vp, err := valueprof.NewValueProfiler(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := valueprof.Run(prog, w.Test.Args, vp); err != nil {
			b.Fatal(err)
		}
		duty = vp.Profile().DutyCycle()
	}
	b.ReportMetric(duty, "duty-cycle")
}

// suiteBenchJobs is the suite profiling pass as independent jobs:
// every workload, both inputs, full-time all-instruction profiling.
func suiteBenchJobs(b *testing.B) []valueprof.ParallelJob {
	b.Helper()
	var jobs []valueprof.ParallelJob
	for _, w := range valueprof.Workloads() {
		if _, err := w.Compile(); err != nil {
			b.Fatal(err)
		}
		for _, in := range w.Inputs() {
			jobs = append(jobs, valueprof.ParallelJob{
				Workload: w, Input: in, Options: valueprof.DefaultOptions(),
			})
		}
	}
	return jobs
}

func benchSuiteProfiling(b *testing.B, workers int) {
	jobs := suiteBenchJobs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := valueprof.RunParallel(context.Background(), workers, jobs)
		if err := valueprof.FirstParallelError(results); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkSuiteProfilingSerial profiles the 20 suite jobs on a
// one-wide pool: the serial baseline the parallel variant is read
// against.
func BenchmarkSuiteProfilingSerial(b *testing.B) { benchSuiteProfiling(b, 1) }

// BenchmarkSuiteProfilingParallel runs the same jobs on a
// GOMAXPROCS-wide pool (identical output, less wall clock on
// multi-core hosts).
func BenchmarkSuiteProfilingParallel(b *testing.B) {
	benchSuiteProfiling(b, runtime.GOMAXPROCS(0))
}

// BenchmarkMergeRecords measures folding the records of two
// single-input runs of one workload into the combined-run record.
func BenchmarkMergeRecords(b *testing.B) {
	w, err := valueprof.WorkloadByName("mcsim")
	if err != nil {
		b.Fatal(err)
	}
	var jobs []valueprof.ParallelJob
	for _, in := range w.Inputs() {
		jobs = append(jobs, valueprof.ParallelJob{
			Workload: w, Input: in, Options: valueprof.DefaultOptions(),
		})
	}
	results := valueprof.RunParallel(context.Background(), 2, jobs)
	if err := valueprof.FirstParallelError(results); err != nil {
		b.Fatal(err)
	}
	test := results[0].Profile.Record(w.Name, results[0].Job.Input.Name)
	train := results[1].Profile.Record(w.Name, results[1].Job.Input.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valueprof.MergeRecords(test, train); err != nil {
			b.Fatal(err)
		}
	}
}
