// vexp regenerates the paper's tables and figures (experiments e1–e13).
//
// Usage:
//
//	vexp            # run everything
//	vexp e2 e6      # run selected experiments
//	vexp -list      # list experiments
//	vexp -quick e4  # reduced sweeps
//	vexp -w compress,dictv e2
//	vexp -jobs 4 e2 e3             # profile workloads on 4 workers
//	vexp -retries 2 -job-deadline 2m -salvage-partial
//	vexp -bench-parallel BENCH_parallel.json
//	vexp -bench-vm BENCH_vm.json
//	vexp -bench-vm-check BENCH_vm.json
//	vexp -bench-diff OLD.json [NEW.json]
//
// -jobs sets the worker-pool width used both across experiments and
// for the per-workload profiling runs inside each one; the output is
// byte-identical to a serial run at any width. -bench-parallel times
// the suite profiling pass serially and in parallel, cross-checks that
// both produce identical profiles, and writes the timing report as
// JSON (the repo's recorded benchmark baseline). -bench-vm records the
// interpreter hot-loop baseline (per-opcode dispatch, hooked vs
// unhooked); -bench-vm-check re-measures and gates the hook-overhead
// ratio and the hooked run's allocation count against that baseline
// with ±10% tolerance.
//
// Robustness: -retries re-runs a failed experiment up to N extra
// times (with deterministic backoff), -job-deadline bounds each
// attempt's wall clock, and -salvage-partial reports the experiments
// that still failed at the end — keeping every successful table —
// instead of aborting on the first error. Exit codes: 0 clean, 1 any
// experiment failed or any shape check failed, 3 partial results
// under -salvage-partial.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"valueprof/internal/atomicio"
	"valueprof/internal/experiments"
	"valueprof/internal/parallel"
	"valueprof/internal/supervise"
	"valueprof/internal/vmbench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	wls := flag.String("w", "", "comma-separated workload subset")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool width for profiling runs (1 = serial)")
	retries := flag.Int("retries", 0, "re-run a failed experiment up to N extra attempts")
	jobDeadline := flag.Duration("job-deadline", 0, "wall-clock budget per experiment attempt (0 = none)")
	salvage := flag.Bool("salvage-partial", false,
		"keep going past failed experiments and report them at the end (exit 3) instead of aborting on the first")
	benchOut := flag.String("bench-parallel", "",
		"time the suite profiling pass serial vs parallel, write the JSON report here, and exit")
	benchVM := flag.String("bench-vm", "",
		"run the VM hot-loop benchmarks, write the JSON report here, and exit")
	benchVMCheck := flag.String("bench-vm-check", "",
		"re-measure the VM hot loop and gate its hook overhead and allocations against this recorded baseline (exit 1 on regression)")
	benchDiff := flag.String("bench-diff", "",
		"compare this recorded VM baseline against a second report (first positional arg, default BENCH_vm.json) without re-measuring; exit 1 if the gated figures moved more than 10%")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if *benchOut != "" {
		benchParallel(*benchOut, *jobs)
		return
	}
	if *benchVM != "" {
		benchVMRecord(*benchVM)
		return
	}
	if *benchVMCheck != "" {
		benchVMGate(*benchVMCheck)
		return
	}
	if *benchDiff != "" {
		cur := "BENCH_vm.json"
		if flag.NArg() > 0 {
			cur = flag.Arg(0)
		}
		benchVMDiff(*benchDiff, cur)
		return
	}

	cfg := experiments.Config{Quick: *quick, Jobs: *jobs}
	if *wls != "" {
		cfg.Workloads = strings.Split(*wls, ",")
	}

	var toRun []*experiments.Experiment
	if flag.NArg() == 0 {
		toRun = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fatal(err)
			}
			toRun = append(toRun, e)
		}
	}

	// Experiments themselves run on the pool too, each wrapped in the
	// retry supervisor; every slot captures its result (or error) and
	// everything is printed afterwards in id order so the report reads
	// identically at any -jobs width.
	policy := supervise.Policy{
		MaxAttempts:     *retries + 1,
		AttemptDeadline: *jobDeadline,
		BackoffBase:     100 * time.Millisecond,
	}
	type outcome struct {
		res      *experiments.Result
		err      error
		attempts int
		elapsed  time.Duration
	}
	ctx := context.Background()
	outcomes := parallel.Map(*jobs, len(toRun), func(i int) outcome {
		start := time.Now()
		var res *experiments.Result
		d := supervise.Do(ctx, policy, func(ctx context.Context, attempt int) error {
			var err error
			res, err = toRun[i].Run(cfg)
			if err != nil {
				res = nil
				return err
			}
			return ctx.Err() // a blown attempt deadline fails the attempt
		})
		return outcome{res: res, err: d.Err, attempts: d.Attempts, elapsed: time.Since(start)}
	})

	failed, broken := 0, 0
	for i, e := range toRun {
		o := outcomes[i]
		if o.err != nil {
			err := fmt.Errorf("%s (after %d attempts): %w", e.ID, o.attempts, o.err)
			if !*salvage {
				fatal(err)
			}
			broken++
			fmt.Fprintf(os.Stderr, "vexp: %v\n", err)
			continue
		}
		if o.attempts > 1 {
			fmt.Fprintf(os.Stderr, "vexp: %s recovered after %d attempts\n", e.ID, o.attempts)
		}
		fmt.Printf("%s\n(%s in %v)\n\n", o.res.Summary(), e.ID, o.elapsed.Round(time.Millisecond))
		failed += len(o.res.Failed())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "vexp: %d shape checks FAILED\n", failed)
		os.Exit(1)
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "vexp: %d of %d experiments failed; partial results above\n", broken, len(toRun))
		os.Exit(3)
	}
}

// benchParallel runs the serial-vs-parallel suite benchmark and
// records the report (the BENCH_parallel.json baseline).
func benchParallel(path string, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A one-wide "parallel" pass measures nothing: whenever the host
	// has more than one CPU, record with a genuinely parallel pool.
	if workers < 2 && runtime.NumCPU() > 1 {
		workers = runtime.NumCPU()
	}
	rep, err := parallel.BenchSuite(context.Background(), workers, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	err = atomicio.WriteFile(path, func(f io.Writer) error {
		return rep.WriteJSON(f)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.String())
	fmt.Fprintf(os.Stderr, "vexp: wrote %s\n", path)
}

// benchVMRecord measures the interpreter hot path and records the
// report (the BENCH_vm.json baseline).
func benchVMRecord(path string) {
	rep, err := vmbench.Measure(vmbench.Options{})
	if err != nil {
		fatal(err)
	}
	err = atomicio.WriteFile(path, func(f io.Writer) error {
		return rep.WriteJSON(f)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.String())
	fmt.Fprintf(os.Stderr, "vexp: wrote %s\n", path)
}

// benchVMGate re-measures the hot path and fails if the machine-
// independent figures regressed more than 10% against the recorded
// baseline.
func benchVMGate(path string) {
	baseline := readVMReport(path)
	cur, err := vmbench.Measure(vmbench.Options{SkipPerOp: true})
	if err != nil {
		fatal(err)
	}
	fmt.Println(cur.String())
	if err := vmbench.Compare(baseline, cur, 0.10); err != nil {
		fatal(err)
	}
	fmt.Printf("vexp: vm bench within 10%% of %s (hook overhead %.2fx vs baseline %.2fx)\n",
		path, cur.HookOverhead, baseline.HookOverhead)
}

// benchVMDiff compares two recorded reports without re-measuring:
// per-metric and per-op ratio deltas, plus the same 10% gate on the
// machine-independent figures that bench-vm-check applies.
func benchVMDiff(oldPath, newPath string) {
	baseline, current := readVMReport(oldPath), readVMReport(newPath)
	text, err := vmbench.Diff(baseline, current, 0.10)
	fmt.Printf("vexp: bench diff %s -> %s\n%s", oldPath, newPath, text)
	if err != nil {
		fatal(err)
	}
	fmt.Println("vexp: gated figures within 10%")
}

func readVMReport(path string) *vmbench.Report {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rep, err := vmbench.ReadReport(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return rep
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
