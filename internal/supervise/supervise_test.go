package supervise

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/faultinject"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// loopSrc is a deterministic ~5k-instruction workload: an input-seeded
// countdown whose profiled values vary per iteration, printing the
// accumulated total so jobs have an output self-check.
const loopSrc = `
        .proc main
main:   syscall getint
        add t5, v0, zero
        li t4, 0
loop:   li t1, 7
        add t4, t4, t5
        add t2, t1, t5
        addi t5, t5, -1
        bne t5, loop
        add a0, t4, zero
        syscall putint
        addi a0, zero, 0
        syscall exit
        .endproc
`

const loopWant = "500500"

func loopProg(t *testing.T) *program.Program {
	t.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func loopJob(t *testing.T) Job {
	return Job{
		Name:      "loop",
		InputName: "test",
		Prog:      loopProg(t),
		Input:     []int64{1000},
		Want:      loopWant,
		Options:   core.Options{TNV: core.DefaultTNVConfig()},
	}
}

// recordBytes serializes the report's profile record for byte-identity
// checks, zeroing the supervision provenance (a retried success is
// allowed to say it retried — the profile data must match).
func recordBytes(t *testing.T, r *JobReport) []byte {
	t.Helper()
	rec := r.Record()
	if rec == nil {
		t.Fatalf("job %s has no record (state %v, err %v)", r.Job.label(), r.State, r.Err)
	}
	rec.Attempts = 0
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scriptedChaos injects per-(job, attempt) tools and checkpoint
// mangling from fixed tables.
type scriptedChaos struct {
	tools  map[[2]int]atom.Tool
	mangle func(job, attempt int, data []byte) []byte
}

func (c *scriptedChaos) AttemptTool(job, attempt int, _ *core.ValueProfiler) atom.Tool {
	if c.tools == nil {
		return nil
	}
	return c.tools[[2]int{job, attempt}]
}

func (c *scriptedChaos) MangleCheckpoint(job, attempt int, data []byte) []byte {
	if c.mangle == nil {
		return data
	}
	return c.mangle(job, attempt, data)
}

func cleanBaseline(t *testing.T) []byte {
	t.Helper()
	rep := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{})
	r := &rep.Jobs[0]
	if r.State != StateCompleted || r.Attempts != 1 || r.Err != nil {
		t.Fatalf("baseline run: %+v", r)
	}
	return recordBytes(t, r)
}

func TestRetryResumesAndMatchesFaultFreeRun(t *testing.T) {
	want := cleanBaseline(t)
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{0, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
	}}
	rep := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{
		MaxAttempts: 3, Resume: true, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.State != StateCompleted || r.Class != ClassSuccess {
		t.Fatalf("state %v class %v err %v", r.State, r.Class, r.Err)
	}
	if r.Attempts != 2 || r.Resumed != 1 || r.CorruptCheckpoints != 0 {
		t.Fatalf("attempts %d resumed %d corrupt %d", r.Attempts, r.Resumed, r.CorruptCheckpoints)
	}
	if got := recordBytes(t, r); !bytes.Equal(got, want) {
		t.Error("resumed retry profile differs from fault-free run")
	}
	if rec := r.Record(); rec.Attempts != 2 || rec.Salvaged {
		t.Errorf("record provenance: %+v", rec)
	}
}

func TestRetryFromScratchWhenOptionsForbidResume(t *testing.T) {
	job := loopJob(t)
	job.Options.TrackFull = true // ground truth is not checkpointed
	base := Run(context.Background(), 1, []Job{job}, Policy{})
	want := recordBytes(t, &base.Jobs[0])

	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{0, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
	}}
	job2 := loopJob(t)
	job2.Options.TrackFull = true
	rep := Run(context.Background(), 1, []Job{job2}, Policy{
		MaxAttempts: 3, Resume: true, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.State != StateCompleted || r.Resumed != 0 {
		t.Fatalf("state %v resumed %d err %v", r.State, r.Resumed, r.Err)
	}
	if got := recordBytes(t, r); !bytes.Equal(got, want) {
		t.Error("from-scratch retry profile differs from fault-free run")
	}
}

func TestJobCheckpointResumesFirstAttempt(t *testing.T) {
	// A checkpoint handed in with the job — a restarted daemon's — seeds
	// the first attempt; one taken from another input is refused like a
	// corrupt one.
	want := cleanBaseline(t)
	saved := savedCheckpoint(t)

	job := loopJob(t)
	job.Checkpoint = saved
	r := Run(context.Background(), 1, []Job{job}, Policy{Resume: true}).Jobs[0]
	if r.State != StateCompleted || r.Attempts != 1 || r.Resumed != 1 {
		t.Fatalf("state %v attempts %d resumed %d err %v", r.State, r.Attempts, r.Resumed, r.Err)
	}
	if got := recordBytes(t, &r); !bytes.Equal(got, want) {
		t.Error("profile resumed from Job.Checkpoint differs from fault-free run")
	}

	other := loopJob(t)
	other.InputName = "other"
	other.Checkpoint = saved
	r = Run(context.Background(), 1, []Job{other}, Policy{Resume: true}).Jobs[0]
	if r.State != StateCompleted || r.Resumed != 0 || r.CorruptCheckpoints != 1 {
		t.Fatalf("foreign checkpoint: state %v resumed %d corrupt %d", r.State, r.Resumed, r.CorruptCheckpoints)
	}
}

func TestCorruptCheckpointDemotesToFreshStart(t *testing.T) {
	want := cleanBaseline(t)
	chaos := &scriptedChaos{
		tools: map[[2]int]atom.Tool{
			{0, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
		},
		mangle: func(job, attempt int, data []byte) []byte {
			return data[:len(data)/2] // torn write
		},
	}
	rep := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{
		MaxAttempts: 3, Resume: true, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.State != StateCompleted {
		t.Fatalf("state %v err %v", r.State, r.Err)
	}
	if r.Resumed != 0 || r.CorruptCheckpoints != 1 {
		t.Fatalf("resumed %d corrupt %d, want 0 and 1", r.Resumed, r.CorruptCheckpoints)
	}
	if got := recordBytes(t, r); !bytes.Equal(got, want) {
		t.Error("post-corruption retry profile differs from fault-free run")
	}
}

// countingHooks counts AttemptTool calls per attempt and disturbs
// nothing.
type countingHooks struct{ calls map[int]int }

func (h *countingHooks) AttemptTool(_, attempt int, _ *core.ValueProfiler) atom.Tool {
	h.calls[attempt]++
	return nil
}

func (h *countingHooks) MangleCheckpoint(_, _ int, data []byte) []byte { return data }

// savedCheckpoint returns the checkpoint loopJob's attempt hands its
// hooks when a fault kills it at instruction 1500.
func savedCheckpoint(t *testing.T) []byte {
	t.Helper()
	var saved []byte
	chaos := &scriptedChaos{
		tools: map[[2]int]atom.Tool{
			{0, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
		},
		mangle: func(job, attempt int, data []byte) []byte {
			saved = data
			return data
		},
	}
	Run(context.Background(), 1, []Job{loopJob(t)}, Policy{Hooks: chaos})
	if saved == nil {
		t.Fatal("the failed attempt handed its hooks no checkpoint")
	}
	return saved
}

// refusableCheckpoint returns savedCheckpoint rewritten after mutate
// with a valid CRC, and checks the strict loader still accepts it.
func refusableCheckpoint(t *testing.T, mutate func(*core.Checkpoint)) []byte {
	t.Helper()
	ck, err := core.ReadCheckpoint(bytes.NewReader(savedCheckpoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	mutate(ck)
	var buf bytes.Buffer
	if err := core.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("rewritten checkpoint fails the strict loader: %v", err)
	}
	return buf.Bytes()
}

func TestRefusedCheckpointRunsAttemptFresh(t *testing.T) {
	// A checkpoint that passes its CRC and invariants but that the
	// profiler will not be seeded with (another TNV configuration), or
	// that the VM will not restore from (memory that decompresses
	// short), counts as corrupt. The same attempt then runs fresh, with
	// its tool built once, to the fault-free record.
	want := cleanBaseline(t)
	for name, mutate := range map[string]func(*core.Checkpoint){
		"another TNV config": func(c *core.Checkpoint) { c.TNV.Size = 12 },
		"short memory":       func(c *core.Checkpoint) { c.VM.MemLen += 4096 },
	} {
		job := loopJob(t)
		job.Checkpoint = refusableCheckpoint(t, mutate)
		hooks := &countingHooks{calls: map[int]int{}}
		r := Run(context.Background(), 1, []Job{job}, Policy{Resume: true, Hooks: hooks}).Jobs[0]
		if r.State != StateCompleted || r.Attempts != 1 || r.CorruptCheckpoints != 1 || r.Resumed != 0 {
			t.Fatalf("%s: state %v attempts %d corrupt %d resumed %d err %v, want completed 1 1 0",
				name, r.State, r.Attempts, r.CorruptCheckpoints, r.Resumed, r.Err)
		}
		if hooks.calls[1] != 1 {
			t.Errorf("%s: AttemptTool called %d times for the attempt, want 1", name, hooks.calls[1])
		}
		if got := recordBytes(t, &r); !bytes.Equal(got, want) {
			t.Errorf("%s: profile after the refusal differs from the fault-free run", name)
		}
	}
}

func TestDeterministicFaultEscalatesToPermanent(t *testing.T) {
	// The same fault at the same instruction count on both attempts
	// looks deterministic: the supervisor must stop burning budget.
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{0, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
		{0, 2}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
	}}
	rep := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{
		MaxAttempts: 5, Hooks: chaos, SalvagePartial: true,
	})
	r := &rep.Jobs[0]
	if r.Attempts != 2 || r.Class != ClassPermanent {
		t.Fatalf("attempts %d class %v, want 2 permanent", r.Attempts, r.Class)
	}
	if r.State != StateSalvaged || r.Profile == nil {
		t.Fatalf("state %v, want salvaged partial", r.State)
	}
	rec := r.Record()
	if !rec.Salvaged || rec.Outcome != "faulted" || rec.Attempts != 2 {
		t.Errorf("salvaged record provenance: %+v", rec)
	}
}

func TestOutputMismatchIsPermanent(t *testing.T) {
	job := loopJob(t)
	job.Want = "wrong"
	rep := Run(context.Background(), 1, []Job{job}, Policy{MaxAttempts: 4})
	r := &rep.Jobs[0]
	if r.Attempts != 1 || r.Class != ClassPermanent || r.State != StateFailed {
		t.Fatalf("attempts %d class %v state %v", r.Attempts, r.Class, r.State)
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "mismatch") {
		t.Errorf("err: %v", r.Err)
	}
}

func TestStuckBudgetStopsRetrying(t *testing.T) {
	// An absolute step limit below the program length: every resumed
	// attempt stalls at the same instruction count, which the
	// supervisor must recognize as exhausted budget, not a transient.
	job := loopJob(t)
	job.Run.StepLimit = 2000
	rep := Run(context.Background(), 1, []Job{job}, Policy{
		MaxAttempts: 10, Resume: true, SalvagePartial: true,
	})
	r := &rep.Jobs[0]
	if r.Class != ClassBudget || r.Outcome != vm.OutcomeLimit {
		t.Fatalf("class %v outcome %v", r.Class, r.Outcome)
	}
	if r.Attempts >= 10 {
		t.Errorf("burned all %d attempts on a stuck job", r.Attempts)
	}
	if r.State != StateSalvaged || r.Profile == nil {
		t.Fatalf("state %v, want salvaged partial", r.State)
	}
}

func TestAbsoluteStepLimitIsBudgetAtOnce(t *testing.T) {
	// Run.StepLimit spans attempts: a retry, resumed or from scratch,
	// stops on the same instruction, so the first overrun is final for
	// resumable and convergent jobs alike.
	conv := core.DefaultConvergentConfig()
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{TNV: core.DefaultTNVConfig()}},
		{"convergent", core.Options{TNV: core.DefaultTNVConfig(), Convergent: &conv}},
	} {
		job := loopJob(t)
		job.Options = c.opts
		job.Run.StepLimit = 1000
		rep := Run(context.Background(), 1, []Job{job}, Policy{MaxAttempts: 4, Resume: true})
		r := &rep.Jobs[0]
		if r.Class != ClassBudget || r.Outcome != vm.OutcomeLimit || r.State != StateFailed {
			t.Errorf("%s: class %v outcome %v state %v", c.name, r.Class, r.Outcome, r.State)
		}
		if r.Attempts != 1 {
			t.Errorf("%s: %d attempts on an absolute step limit, want 1", c.name, r.Attempts)
		}
	}
}

func TestAttemptDeadlineResumesAfterStall(t *testing.T) {
	// A stalled first attempt overruns AttemptDeadline; the retry gets a
	// fresh deadline, resumes from the carried checkpoint, and finishes
	// with the fault-free profile. The deadline leaves the ~5k
	// instruction retry ample room on a loaded race-detector host.
	want := cleanBaseline(t)
	job := loopJob(t)
	job.Run.Quantum = 64
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{0, 1}: &faultinject.Staller{At: 1500, Sleep: 1500 * time.Millisecond},
	}}
	rep := Run(context.Background(), 1, []Job{job}, Policy{
		MaxAttempts: 3, Resume: true, AttemptDeadline: time.Second, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.State != StateCompleted || r.Attempts != 2 || r.Resumed < 1 {
		t.Fatalf("state %v attempts %d resumed %d err %v", r.State, r.Attempts, r.Resumed, r.Err)
	}
	if got := recordBytes(t, r); !bytes.Equal(got, want) {
		t.Error("profile after a deadline retry differs from fault-free run")
	}
}

func TestSpentTotalBudgetIsBudget(t *testing.T) {
	// The stalled first attempt hits the TotalBudget deadline, and no
	// budget is left to start a second one.
	job := loopJob(t)
	job.Run.Quantum = 64
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{0, 1}: &faultinject.Staller{At: 1500, Sleep: 100 * time.Millisecond},
	}}
	rep := Run(context.Background(), 1, []Job{job}, Policy{
		MaxAttempts: 3, Resume: true, TotalBudget: 30 * time.Millisecond, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.Class != ClassBudget || r.State != StateFailed || r.Attempts != 1 {
		t.Fatalf("class %v state %v attempts %d, want budget/failed after 1", r.Class, r.State, r.Attempts)
	}
	if r.Outcome != vm.OutcomeDeadline || r.Err == nil {
		t.Errorf("outcome %v err %v, want the deadline", r.Outcome, r.Err)
	}
}

func TestAttemptStepsSliceJobAcrossRetries(t *testing.T) {
	// Per-attempt instruction budget, no global limit: each resumed
	// attempt advances one slice until the program completes; the
	// result must still match the unbudgeted run.
	want := cleanBaseline(t)
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{}}
	rep := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{
		MaxAttempts: 10, Resume: true, AttemptSteps: 2000, Hooks: chaos,
	})
	r := &rep.Jobs[0]
	if r.State != StateCompleted {
		t.Fatalf("state %v err %v (attempts %d)", r.State, r.Err, r.Attempts)
	}
	if r.Attempts < 3 || r.Resumed != r.Attempts-1 {
		t.Fatalf("attempts %d resumed %d, want ≥3 slices all resumed", r.Attempts, r.Resumed)
	}
	if got := recordBytes(t, r); !bytes.Equal(got, want) {
		t.Error("sliced run profile differs from fault-free run")
	}
}

func TestBreakerQuarantinesGroup(t *testing.T) {
	bad := func() Job {
		j := loopJob(t)
		j.Want = "wrong" // permanent on every attempt
		return j
	}
	good := loopJob(t)
	good.Group = "healthy"
	jobs := []Job{bad(), bad(), bad(), good}
	rep := Run(context.Background(), 1, jobs, Policy{BreakerThreshold: 2})
	if got := []State{rep.Jobs[0].State, rep.Jobs[1].State, rep.Jobs[2].State, rep.Jobs[3].State}; got[0] != StateFailed ||
		got[1] != StateFailed || got[2] != StateQuarantined || got[3] != StateCompleted {
		t.Fatalf("states %v", got)
	}
	if rep.Quarantined != 1 || rep.Failed != 2 || rep.Completed != 1 {
		t.Fatalf("tallies %+v", rep)
	}
	r := &rep.Jobs[2]
	if r.Attempts != 0 || r.Err == nil || !strings.Contains(r.Err.Error(), "quarantined") {
		t.Errorf("quarantined job ran: attempts %d err %v", r.Attempts, r.Err)
	}
}

func TestAbortOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Run(ctx, 1, []Job{loopJob(t)}, Policy{MaxAttempts: 3})
	r := &rep.Jobs[0]
	if r.State != StateAborted || r.Class != ClassAborted {
		t.Fatalf("state %v class %v", r.State, r.Class)
	}
	if rep.Aborted != 1 {
		t.Fatalf("tallies %+v", rep)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond, Seed: 42}
	var prevFloor time.Duration
	for attempt := 2; attempt <= 8; attempt++ {
		d1 := p.backoff(3, attempt)
		d2 := p.backoff(3, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < prevFloor/2 || d1 > p.BackoffMax {
			t.Fatalf("attempt %d: backoff %v outside [%v/2, %v]", attempt, d1, prevFloor, p.BackoffMax)
		}
		prevFloor = d1
	}
	if p.backoff(0, 1) != 0 {
		t.Error("first attempt must not wait")
	}
	other := p
	other.Seed = 43
	if p.backoff(3, 4) == other.backoff(3, 4) {
		t.Log("note: differing seeds produced equal jitter (possible, just unlikely)")
	}
}

func TestMergeUsableMixesSalvagedAndCompleted(t *testing.T) {
	chaos := &scriptedChaos{tools: map[[2]int]atom.Tool{
		{1, 1}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
		{1, 2}: faultinject.New(faultinject.Injection{At: 1500, Kind: faultinject.KindFault}),
	}}
	jobs := []Job{loopJob(t), loopJob(t)}
	jobs[1].InputName = "again"
	rep := Run(context.Background(), 1, jobs, Policy{
		MaxAttempts: 2, SalvagePartial: true, Hooks: chaos,
	})
	if rep.Completed != 1 || rep.Salvaged != 1 {
		t.Fatalf("tallies %+v", rep)
	}
	merged, degraded, err := rep.MergeUsable()
	if err != nil || merged == nil {
		t.Fatalf("merge: %v", err)
	}
	if !degraded {
		t.Error("merge including a salvaged partial not marked degraded")
	}
	clean := Run(context.Background(), 1, []Job{loopJob(t)}, Policy{})
	if _, degraded, err := clean.MergeUsable(); err != nil || degraded {
		t.Errorf("clean merge: degraded %v err %v", degraded, err)
	}
}

func TestJobOfCompilesWorkload(t *testing.T) {
	// Conversion from the pool's job type carries every field across.
	// (Uses the real workload registry via parallel.Job.)
	j := parallelJobForTest(t)
	sj, err := JobOf(j)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Name != j.Workload.Name || sj.InputName != j.Input.Name || sj.Prog == nil {
		t.Fatalf("conversion lost fields: %+v", sj)
	}
	rep := Run(context.Background(), 1, []Job{sj}, Policy{})
	if rep.Jobs[0].State != StateCompleted {
		t.Fatalf("converted job: %v (%v)", rep.Jobs[0].State, rep.Jobs[0].Err)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	res := Do(context.Background(), Policy{MaxAttempts: 5}, func(ctx context.Context, attempt int) error {
		calls++
		if attempt < 3 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if res.Err != nil || res.Attempts != 3 || calls != 3 {
		t.Fatalf("res %+v calls %d", res, calls)
	}

	res = Do(context.Background(), Policy{MaxAttempts: 2}, func(ctx context.Context, attempt int) error {
		return context.DeadlineExceeded
	})
	if res.Err == nil || res.Attempts != 2 {
		t.Fatalf("res %+v", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = Do(ctx, Policy{MaxAttempts: 3}, func(ctx context.Context, attempt int) error { return nil })
	if res.Err == nil || res.Attempts != 0 {
		t.Fatalf("cancelled Do still ran: %+v", res)
	}
}

func TestDoAppliesAttemptDeadline(t *testing.T) {
	res := Do(context.Background(), Policy{MaxAttempts: 1, AttemptDeadline: 10 * time.Millisecond},
		func(ctx context.Context, attempt int) error {
			d, ok := ctx.Deadline()
			if !ok {
				t.Error("attempt context has no deadline")
			} else if until := time.Until(d); until > 10*time.Millisecond {
				t.Errorf("deadline %v away, want ≤ 10ms", until)
			}
			return nil
		})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// parallelJobForTest builds a pool job from the smallest registered
// workload.
func parallelJobForTest(t *testing.T) parallel.Job {
	t.Helper()
	wls := workloads.All()
	if len(wls) == 0 {
		t.Skip("no workloads registered")
	}
	return parallel.Job{
		Workload: wls[0],
		Input:    wls[0].Test,
		Options:  core.Options{TNV: core.DefaultTNVConfig()},
	}
}
