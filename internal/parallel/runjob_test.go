package parallel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/progen"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

func generated(t *testing.T, seed uint64) (*program.Program, *progen.Spec) {
	t.Helper()
	spec := progen.Generate(progen.Config{Seed: seed})
	prog, err := progen.Build(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return prog, &spec
}

// progJob is a job that runs prog directly, with no workload.
func progJob(name string, prog *program.Program, input []int64) parallel.Job {
	return parallel.Job{Prog: prog, Input: workloads.Input{Name: name, Args: input}, Options: core.DefaultOptions()}
}

// TestRunProgJobsMatchSerial shards one generated program across
// three inputs on a pool and checks the pooled results are
// byte-identical to fresh serial runs of the same jobs.
func TestRunProgJobsMatchSerial(t *testing.T) {
	prog, spec := generated(t, 3)
	jobs := []parallel.Job{
		progJob("a", prog, progen.InputFor(spec, 0)),
		progJob("b", prog, progen.InputFor(spec, 1)),
		progJob("c", prog, progen.InputFor(spec, 2)),
	}
	pooled := parallel.Run(context.Background(), 3, jobs)
	for i, job := range jobs {
		if pooled[i].Job.Name() != job.Input.Name {
			t.Fatalf("job %d is named %q, want its input's name %q", i, pooled[i].Job.Name(), job.Input.Name)
		}
		vp, err := core.NewValueProfiler(job.Options)
		if err != nil {
			t.Fatal(err)
		}
		res, outcome, err := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: job.Input.Args}, vp)
		if err != nil || outcome != vm.OutcomeCompleted {
			t.Fatalf("job %d: serial run failed: %v (%v)", i, err, outcome)
		}
		if pooled[i].Err != nil || pooled[i].Outcome != vm.OutcomeCompleted {
			t.Fatalf("job %d: pooled run failed: %v (%v)", i, pooled[i].Err, pooled[i].Outcome)
		}
		if pooled[i].Exec.Output != res.Output || pooled[i].Exec.InstCount != res.InstCount {
			t.Fatalf("job %d: pooled execution differs from serial", i)
		}
		want, _ := json.Marshal(vp.Profile().Record("g", job.Input.Name))
		got, _ := json.Marshal(pooled[i].Profile.Record("g", job.Input.Name))
		if string(want) != string(got) {
			t.Fatalf("job %d: pooled profile differs from serial:\n got %s\nwant %s", i, got, want)
		}
	}

	if err := parallel.FirstError(pooled); err != nil {
		t.Fatal(err)
	}
	merged := pooled[0].Profile.Record("g", pooled[0].Job.Input.Name)
	wantExec := pooled[0].Profile.Profiled()
	for _, r := range pooled[1:] {
		wantExec += r.Profile.Profiled()
		var err error
		if merged, err = core.MergeRecords(merged, r.Profile.Record("g", r.Job.Input.Name)); err != nil {
			t.Fatal(err)
		}
	}
	var gotExec uint64
	for _, s := range merged.Sites {
		gotExec += s.Exec
	}
	if gotExec != wantExec {
		t.Fatalf("merged record lost executions: %d != %d", gotExec, wantExec)
	}
}

// TestRunProgJobErrorPaths covers the per-job failure branches: a
// cancelled context marks every job cancelled without running it, and
// options the profiler rejects surface as a faulted job (and poison a
// merge through FirstError) rather than a panic on the pool goroutine.
func TestRunProgJobErrorPaths(t *testing.T) {
	prog, spec := generated(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []parallel.Job{progJob("j", prog, progen.InputFor(spec, 0))}
	for _, r := range parallel.Run(ctx, 1, jobs) {
		if r.Err == nil || r.Outcome != vm.OutcomeCancelled || !r.Skipped {
			t.Fatalf("cancelled pool: got %v (%v, skipped %v), want a skipped cancellation", r.Err, r.Outcome, r.Skipped)
		}
		if r.Profile != nil || r.Exec != nil {
			t.Fatal("cancelled job fabricated results")
		}
	}

	bad := jobs
	bad[0].Options = core.Options{TNV: core.TNVConfig{Size: -1}}
	results := parallel.Run(context.Background(), 1, bad)
	if results[0].Err == nil || results[0].Outcome != vm.OutcomeFaulted {
		t.Fatalf("bad options: got %v (%v), want faulted", results[0].Err, results[0].Outcome)
	}
	if err := parallel.FirstError(results); err == nil || !strings.Contains(err.Error(), "profiling j") {
		t.Fatalf("FirstError = %v, want the faulted job's error", err)
	}
}

// TestMergeShardsRejectsFailedShard: a shard stopped by its step limit
// keeps its partial profile, but FirstError refuses the batch with the
// shard's name, so no merge takes the partial for a complete run.
func TestMergeShardsRejectsFailedShard(t *testing.T) {
	prog, spec := generated(t, 4)
	short := progJob("short", prog, progen.InputFor(spec, 0))
	// A one-instruction budget cannot complete any generated program.
	short.Run = atom.RunOptions{StepLimit: 1}
	jobs := []parallel.Job{progJob("ok", prog, progen.InputFor(spec, 0)), short}
	results := parallel.Run(context.Background(), 2, jobs)
	if results[1].Err == nil || results[1].Outcome != vm.OutcomeLimit {
		t.Fatalf("short job: want limit error, got %v (%v)", results[1].Err, results[1].Outcome)
	}
	if results[1].Profile == nil {
		t.Fatal("short job: partial profile not salvaged")
	}
	if err := parallel.FirstError(results); err == nil || !strings.Contains(err.Error(), "profiling short") {
		t.Fatalf("FirstError = %v, want the short shard's error", err)
	}
}

// halfwayCheckpoint stops job halfway through its fresh run and
// returns the captured checkpoint, after checking it passes the strict
// loader.
func halfwayCheckpoint(t *testing.T, job parallel.Job, insts uint64) *core.Checkpoint {
	t.Helper()
	job.Run.StepLimit = insts / 2
	r := parallel.RunJob(context.Background(), job, parallel.Extras{Capture: true})
	if r.Outcome != vm.OutcomeLimit || r.Checkpoint == nil || r.CaptureErr != nil {
		t.Fatalf("halfway run: outcome %v, checkpoint %v, capture error %v", r.Outcome, r.Checkpoint != nil, r.CaptureErr)
	}
	if r.Checkpoint.Program != job.Workload.Name || r.Checkpoint.Input != job.Input.Name {
		t.Fatalf("checkpoint tagged %s/%s, want %s", r.Checkpoint.Program, r.Checkpoint.Input, job.Name())
	}
	return r.Checkpoint
}

// rewrite round-trips ck through the serializer after mutate, so the
// result carries a valid CRC, and checks the strict loader accepts it.
func rewrite(t *testing.T, ck *core.Checkpoint, mutate func(*core.Checkpoint)) *core.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	out, err := core.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mutate(out)
	buf.Reset()
	if err := core.WriteCheckpoint(&buf, out); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("rewritten checkpoint fails the strict loader: %v", err)
	}
	return back
}

func recordOf(t *testing.T, r parallel.Ran) []byte {
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

// TestRunJobResume: a checkpoint of the job resumes to the fresh run's
// record, with the extra tool built once. One the profiler cannot be
// seeded with (another TNV configuration) or the VM cannot be restored
// from (memory that decompresses short) is refused before the tool is
// built and before any instruction runs.
func TestRunJobResume(t *testing.T) {
	w := workloads.All()[0]
	job := parallel.Job{Workload: w, Input: w.Test, Options: core.DefaultOptions()}
	fresh := parallel.RunJob(context.Background(), job, parallel.Extras{})
	want := recordOf(t, fresh)
	ck := halfwayCheckpoint(t, job, fresh.Exec.InstCount)

	built := 0
	tool := func(*core.ValueProfiler) atom.Tool { built++; return nil }
	r := parallel.RunJob(context.Background(), job, parallel.Extras{Resume: ck, Tool: tool})
	if r.Refused || built != 1 {
		t.Fatalf("good checkpoint: refused %v, tool built %d times", r.Refused, built)
	}
	if !bytes.Equal(recordOf(t, r), want) {
		t.Error("resumed record differs from the fresh run's")
	}

	for name, mutate := range map[string]func(*core.Checkpoint){
		"another TNV config": func(c *core.Checkpoint) { c.TNV.Size = 12 },
		"short memory":       func(c *core.Checkpoint) { c.VM.MemLen += 4096 },
	} {
		built = 0
		r := parallel.RunJob(context.Background(), job, parallel.Extras{Resume: rewrite(t, ck, mutate), Tool: tool, Capture: true})
		if !r.Refused || r.Err == nil || r.Outcome != vm.OutcomeFaulted {
			t.Errorf("%s: refused %v, outcome %v, err %v; want a refusal", name, r.Refused, r.Outcome, r.Err)
		}
		if built != 0 || r.Exec != nil || r.Profile != nil || r.Checkpoint != nil {
			t.Errorf("%s: refusal built the tool %d times or ran (exec %v, profile %v, checkpoint %v)",
				name, built, r.Exec != nil, r.Profile != nil, r.Checkpoint != nil)
		}
	}

	// The pool is unharmed by the refusals.
	if got := recordOf(t, parallel.RunJob(context.Background(), job, parallel.Extras{})); !bytes.Equal(got, want) {
		t.Error("fresh run after refusals differs from the first")
	}
}
