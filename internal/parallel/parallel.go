// Package parallel executes independent profiling jobs on a bounded
// worker pool. Each job gets its own VM and profiler (the program
// itself is shared read-only via the workload compile cache), so jobs
// never touch common mutable state; results come back in job order
// regardless of which worker finished first, which is what keeps a
// parallel suite run byte-identical to the serial one.
//
// RunJob runs one job, and is the one place a VM is acquired and
// instrumented for a profiled run: Run maps it over a batch,
// internal/supervise calls it once per attempt, and vprof's single run
// calls it directly.
//
// Cancellation and failure follow the RunOutcome salvage contract of
// internal/atom: a cancelled context stops in-flight runs at the next
// quantum boundary (their partial profiles remain salvageable), and
// jobs the pool never dispatched come back annotated — Skipped, with a
// job-named error — rather than silently dropped, so a cancelled batch
// accounts for every piece of work. Retries, budgets, and salvage
// merging on top of this pool live in internal/supervise.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// Job is one independent (workload, input, options) profiling run.
type Job struct {
	Workload *workloads.Workload
	// Prog, when set, is run instead of compiling Workload, which may
	// then be nil: callers that hold a program rather than a registered
	// workload (generated programs, a daemon's submissions) set it.
	Prog  *program.Program
	Input workloads.Input
	// Options configures the job's private value profiler.
	Options core.Options
	// Run carries the control-plane settings (deadline, step limit,
	// hook charging); Run.Input is ignored — the job's Input wins.
	Run atom.RunOptions
}

// Name labels the job for reports and errors: workload/input, or the
// input's name alone for a job without a workload.
func (j *Job) Name() string {
	if j.Workload == nil {
		return j.Input.Name
	}
	return j.Workload.Name + "/" + j.Input.Name
}

// Result is one job's outcome. Profile is non-nil whenever the run
// started, even if it ended early — the salvage path — and Err is
// non-nil iff the run did not complete cleanly (including a workload
// self-check failure on the program's output).
type Result struct {
	Job     Job
	Index   int
	Profile *core.Profile
	Exec    *vm.Result
	Outcome vm.RunOutcome
	Err     error
	// Skipped marks a job the pool never dispatched because the
	// context was already cancelled: there is no partial profile to
	// salvage, unlike a cancelled in-flight job. The result still
	// carries the job and a job-named error, so a cancelled batch
	// reports every piece of abandoned work instead of dropping it.
	Skipped bool
}

// Run executes jobs on at most workers goroutines (≤ 0 selects
// GOMAXPROCS) and returns one Result per job, in job order: Map over
// RunJob. It never fails as a whole: per-job errors are captured in
// the results.
func Run(ctx context.Context, workers int, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	return Map(workers, len(jobs), func(i int) Result {
		if err := ctx.Err(); err != nil {
			return Result{Job: jobs[i], Index: i, Outcome: vm.OutcomeCancelled, Skipped: true,
				Err: fmt.Errorf("parallel: %s not dispatched: %w", jobs[i].Name(), err)}
		}
		r := RunJob(ctx, jobs[i], Extras{}).Result
		r.Index = i
		return r
	})
}

// FirstError returns the lowest-index non-nil job error, wrapped with
// the job's name, or nil — the error a serial loop over the same jobs
// would have hit first.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("profiling %s: %w", results[i].Job.Name(), results[i].Err)
		}
	}
	return nil
}

// MergeShards folds the results' profiles into one, in job order — the
// shard-merge path for runs of the same program split across workers.
// Every job must have completed with a profile.
func MergeShards(results []Result) (*core.Profile, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("parallel: no shards to merge")
	}
	merged := results[0].Profile
	for _, r := range results[1:] {
		var err error
		merged, err = merged.Merge(r.Profile)
		if err != nil {
			return nil, fmt.Errorf("parallel: merging shard %s: %w", r.Job.Name(), err)
		}
	}
	return merged, nil
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (≤ 0 selects GOMAXPROCS) and returns the results in index order. It
// is the generic sibling of Run for callers whose unit of work is not
// a profiling job (vexp parallelizes whole experiments with it);
// cancellation and error handling are fn's responsibility.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
