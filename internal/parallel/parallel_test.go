package parallel

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// suiteJobs is a small deterministic job set: three workloads, both
// inputs each.
func suiteJobs(t *testing.T) []Job {
	t.Helper()
	ws := workloads.All()
	if len(ws) < 3 {
		t.Fatalf("suite too small: %d workloads", len(ws))
	}
	var jobs []Job
	for _, w := range ws[:3] {
		for _, in := range w.Inputs() {
			jobs = append(jobs, Job{Workload: w, Input: in, Options: core.DefaultOptions()})
		}
	}
	return jobs
}

// fullSuite is every workload × both inputs under full-time
// all-instruction profiling: the 20 jobs of a vprof suite pass.
func fullSuite() []Job {
	var jobs []Job
	for _, w := range workloads.All() {
		for _, in := range w.Inputs() {
			jobs = append(jobs, Job{Workload: w, Input: in, Options: core.DefaultOptions()})
		}
	}
	return jobs
}

// jobRecord serializes one job result's profile record, the
// byte-identity currency of the width tests.
func jobRecord(t *testing.T, r Result) []byte {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("job %s: %v", r.Job.Name(), r.Err)
	}
	var buf bytes.Buffer
	if err := r.Profile.Record(r.Job.Workload.Name, r.Job.Input.Name).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The pool contract: any worker count yields byte-identical profiles
// to the serial run, in job order. This test is also the -race proof
// for the per-site skip counters — pooled profilers share nothing.
func TestRunDeterministicAcrossWidths(t *testing.T) {
	jobs := suiteJobs(t)
	serial := Run(context.Background(), 1, jobs)
	for _, workers := range []int{2, 4, len(jobs) + 3} {
		par := Run(context.Background(), workers, jobs)
		if len(par) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(par), len(jobs))
		}
		for i := range jobs {
			if par[i].Index != i || par[i].Job.Name() != jobs[i].Name() {
				t.Fatalf("workers=%d: result %d is job %s", workers, i, par[i].Job.Name())
			}
			if !bytes.Equal(jobRecord(t, serial[i]), jobRecord(t, par[i])) {
				t.Errorf("workers=%d: job %s diverges from the serial run", workers, jobs[i].Name())
			}
		}
	}
}

// Convergent sampling exercises the skip path on every worker; the
// per-site counters must still agree with the serial run.
func TestRunDeterministicWithSampling(t *testing.T) {
	jobs := suiteJobs(t)
	ccfg := core.DefaultConvergentConfig()
	for i := range jobs {
		jobs[i].Options.Convergent = &ccfg
	}
	serial := Run(context.Background(), 1, jobs)
	par := Run(context.Background(), 4, jobs)
	for i := range jobs {
		if !bytes.Equal(jobRecord(t, serial[i]), jobRecord(t, par[i])) {
			t.Errorf("job %s: sampled parallel run diverges from serial", jobs[i].Name())
		}
		if d := par[i].Profile.DutyCycle(); d <= 0 || d >= 1 {
			t.Errorf("job %s: duty cycle %v not in (0,1) under sampling", jobs[i].Name(), d)
		}
	}
}

// A cancelled context must mark every job cancelled — in-flight runs
// salvage a partial profile, undispatched jobs never start — and never
// hang the pool.
func TestRunCancellation(t *testing.T) {
	jobs := suiteJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, 2, jobs)
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("job %s completed under a cancelled context", r.Job.Name())
		}
		if r.Outcome != vm.OutcomeCancelled {
			t.Errorf("job %s outcome %v, want cancelled", r.Job.Name(), r.Outcome)
		}
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError missed the cancellation")
	}
}

// A job that dies early must surface its error and salvage the partial
// profile without disturbing its neighbours.
func TestRunCapturesPerJobErrors(t *testing.T) {
	jobs := suiteJobs(t)
	jobs[1].Run = atom.RunOptions{StepLimit: 500}
	results := Run(context.Background(), 3, jobs)

	r := results[1]
	if r.Err == nil || r.Outcome != vm.OutcomeLimit {
		t.Fatalf("limited job: outcome %v err %v, want a step-limit error", r.Outcome, r.Err)
	}
	if r.Profile == nil || r.Profile.Profiled() == 0 {
		t.Error("limited job salvaged no partial profile")
	}
	for i, other := range results {
		if i == 1 {
			continue
		}
		if other.Err != nil {
			t.Errorf("job %s failed alongside the limited one: %v", other.Job.Name(), other.Err)
		}
	}
	err := FirstError(results)
	if err == nil {
		t.Fatal("FirstError missed the failure")
	}
	if want := "profiling " + jobs[1].Name(); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the failing job (%s)", err, want)
	}
}

// mergeRecords records every result's profile under program and
// folds the records with core.MergeRecords, in job order.
func mergeRecords(t *testing.T, program string, results []Result) *core.ProfileRecord {
	t.Helper()
	merged := results[0].Profile.Record(program, results[0].Job.Input.Name)
	for _, r := range results[1:] {
		var err error
		if merged, err = core.MergeRecords(merged, r.Profile.Record(program, r.Job.Input.Name)); err != nil {
			t.Fatalf("merging shard %s: %v", r.Job.Name(), err)
		}
	}
	return merged
}

// Sharding one workload's inputs across jobs and merging the shards'
// records must preserve the exact totals.
func TestMergeShards(t *testing.T) {
	w := workloads.All()[0]
	var jobs []Job
	for _, in := range w.Inputs() {
		jobs = append(jobs, Job{Workload: w, Input: in, Options: core.DefaultOptions()})
	}
	results := Run(context.Background(), 2, jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	var want, got uint64
	for _, r := range results {
		want += r.Profile.Profiled()
	}
	for _, s := range mergeRecords(t, w.Name, results).Sites {
		got += s.Exec
	}
	if got != want {
		t.Errorf("merged profiled %d, want the shard total %d", got, want)
	}
}

// Map must place fn(i) at out[i] for every width.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 50} {
		out := Map(workers, 20, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if got := Map(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over zero items returned %v", got)
	}
}

// Every job of the suite must produce the same record bytes on a
// two-wide pool as serially.
func TestSuiteRecordsIdenticalAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("two suite passes are slow")
	}
	jobs := fullSuite()
	if len(jobs) != 20 {
		t.Fatalf("suite has %d jobs, want 20", len(jobs))
	}
	serial := Run(context.Background(), 1, jobs)
	want := make([][]byte, len(jobs))
	for i := range serial {
		want[i] = jobRecord(t, serial[i])
	}
	serial = nil
	par := Run(context.Background(), 2, jobs)
	for i := range jobs {
		if !bytes.Equal(jobRecord(t, par[i]), want[i]) {
			t.Errorf("job %s: two-wide record differs from the serial one", jobs[i].Name())
		}
	}
}

// maxPooledAllocsPerJob bounds a suite job's allocations on a warm
// pool. The arena keeps it near 26; a job that allocates its VM and
// profiler fresh makes about 440.
const maxPooledAllocsPerJob = 64

// A warm pool must keep recycling VMs and profilers: a run path that
// stops going through the arena multiplies a job's allocations.
func TestPooledSuiteAllocsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("two suite passes are slow")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	jobs := fullSuite()
	var err error
	perRun := testing.AllocsPerRun(1, func() {
		if e := FirstError(Run(context.Background(), 1, jobs)); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perJob := perRun / float64(len(jobs))
	t.Logf("%.1f allocations per job on a warm pool", perJob)
	if perJob > maxPooledAllocsPerJob {
		t.Errorf("%.1f allocations per job on a warm pool, want ≤ %d", perJob, maxPooledAllocsPerJob)
	}
}

// Undispatched jobs of a cancelled batch must come back annotated —
// Skipped, with an error naming the job — not silently dropped.
func TestCancelledBatchAnnotatesSkippedJobs(t *testing.T) {
	jobs := suiteJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, 2, jobs)
	for _, r := range results {
		if !r.Skipped {
			t.Errorf("job %s not marked skipped under a pre-cancelled context", r.Job.Name())
		}
		if r.Err == nil || !strings.Contains(r.Err.Error(), r.Job.Name()) {
			t.Errorf("job %s: skip error %v does not name the job", r.Job.Name(), r.Err)
		}
		if r.Profile != nil {
			t.Errorf("job %s: skipped job carries a profile", r.Job.Name())
		}
	}
}

// Cancellation racing the merge: whatever mix of completed, cancelled
// in-flight, and skipped jobs a mid-batch cancellation leaves behind,
// FirstError must either pass the batch (all complete, so every shard
// has a profile to merge) or return a clean job-named error — never
// leave a merge to panic on a missing profile.
func TestCancellationRacingMergeShards(t *testing.T) {
	w := workloads.All()[0]
	for round := 0; round < 8; round++ {
		var jobs []Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, Job{Workload: w, Input: w.Test, Options: core.DefaultOptions(),
				Run: atom.RunOptions{Quantum: 64}})
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan []Result, 1)
		go func() { done <- Run(ctx, 3, jobs) }()
		if round%2 == 0 {
			cancel() // race the dispatch loop
		} else {
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
			cancel() // race in-flight runs
		}
		results := <-done
		err := FirstError(results)
		if err == nil {
			mergeRecords(t, w.Name, results) // whole batch beat the cancellation
			continue
		}
		if !strings.Contains(err.Error(), w.Name) {
			t.Errorf("round %d: merge error %q does not name a job", round, err)
		}
		for _, r := range results {
			if r.Skipped && r.Outcome != vm.OutcomeCancelled {
				t.Errorf("round %d: skipped job with outcome %v", round, r.Outcome)
			}
		}
	}
}
