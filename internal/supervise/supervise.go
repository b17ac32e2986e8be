// Package supervise turns the one-shot profiling jobs of
// internal/parallel into managed, retryable, budgeted work — the one
// job runtime behind vprof -jobs, vexp, vfuzz -chaos, and the vprofd
// daemon (internal/serve runs every sub-run through it).
//
// Each supervised job runs under a Policy: a bounded number of
// attempts with exponential backoff and deterministic seeded jitter,
// a per-attempt wall-clock deadline and instruction budget (reusing
// the vm control plane from internal/atom), and a total wall-clock
// budget for the whole job. A failed attempt is classified — transient
// fault, permanent error, or budget exhaustion — and only transient
// failures are retried. Between attempts the supervisor carries the
// run's last VPCKPT1 checkpoint in memory, so a retry resumes where
// the previous attempt died instead of restarting; the checkpoint
// round-trips through its serialized form, so the integrity envelope
// (magic, CRC) guards resume exactly as it guards the on-disk path,
// and a corrupt checkpoint demotes the retry to a fresh start rather
// than poisoning it. Because both the resume path and a from-scratch
// rerun are deterministic, a job that eventually completes produces a
// profile byte-identical to its fault-free run.
//
// When budgets run out the supervisor degrades instead of failing the
// batch: with Policy.SalvagePartial it keeps the best partial profile
// and marks the record with the Salvaged provenance field. A circuit
// breaker quarantines a job group after K consecutive permanent
// failures so one bad program cannot starve the pool. See
// docs/robustness.md for the full state machine.
package supervise

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// Class classifies one attempt's ending, deciding what the supervisor
// does next.
type Class int

const (
	// ClassSuccess: the attempt completed and passed its output check.
	ClassSuccess Class = iota
	// ClassRetryable: a transient-looking failure (injected fault,
	// cancellation, deadline or per-attempt step overrun) worth another
	// attempt.
	ClassRetryable
	// ClassPermanent: retrying cannot help — setup failure, output
	// mismatch, or a deterministic guest fault (same site, same
	// instruction count, two attempts in a row).
	ClassPermanent
	// ClassBudget: the job's budget is exhausted — its absolute step
	// limit reached, its total budget spent, or a resumed attempt made
	// no forward progress so more budget would be wasted.
	ClassBudget
	// ClassAborted: the supervisor's own context was cancelled.
	ClassAborted
)

func (c Class) String() string {
	switch c {
	case ClassSuccess:
		return "success"
	case ClassRetryable:
		return "retryable"
	case ClassPermanent:
		return "permanent"
	case ClassBudget:
		return "budget"
	case ClassAborted:
		return "aborted"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// State is a supervised job's final disposition.
type State int

const (
	// StateCompleted: some attempt ran to completion.
	StateCompleted State = iota
	// StateSalvaged: no attempt completed, but a partial profile was
	// kept under Policy.SalvagePartial.
	StateSalvaged
	// StateFailed: no attempt completed and nothing was salvaged.
	StateFailed
	// StateQuarantined: the circuit breaker refused to run the job.
	StateQuarantined
	// StateAborted: the supervisor context was cancelled before the
	// job could finish its attempts.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateCompleted:
		return "completed"
	case StateSalvaged:
		return "salvaged"
	case StateFailed:
		return "failed"
	case StateQuarantined:
		return "quarantined"
	case StateAborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Hooks instruments supervised attempts. AttemptTool returns a tool to
// attach to one job attempt beside its profiler vp (nil for none), and
// MangleCheckpoint sees the serialized checkpoint carried to the next
// attempt and returns the bytes to carry. faultinject.PoolChaos
// implements it to kill, stall, and corrupt attempts; vprofd
// implements it to stream progress and persist checkpoints.
type Hooks interface {
	AttemptTool(job, attempt int, vp *core.ValueProfiler) atom.Tool
	MangleCheckpoint(job, attempt int, data []byte) []byte
}

// Policy bounds and shapes a supervised job's attempts.
type Policy struct {
	// MaxAttempts caps runs of one job; ≤ 0 means a single attempt.
	MaxAttempts int
	// AttemptDeadline bounds one attempt's wall-clock time; 0 = none.
	AttemptDeadline time.Duration
	// AttemptSteps bounds one attempt's executed instructions, counted
	// from its resume point (vm.StepLimit is absolute, so the
	// supervisor adds the checkpoint's instruction count); 0 = none.
	AttemptSteps uint64
	// TotalBudget bounds the whole job across attempts and backoff;
	// 0 = none.
	TotalBudget time.Duration
	// BackoffBase is the first retry delay, doubled per attempt up to
	// BackoffMax, with deterministic jitter seeded from Seed; 0
	// retries immediately.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter (and nothing else), so a given
	// (seed, job, attempt) always waits the same duration.
	Seed uint64
	// Resume carries a checkpoint between attempts so retries continue
	// instead of restarting. Resume is silently disabled for jobs
	// whose profiler options include state that checkpoints do not
	// capture (convergent or custom sampling, full-profile ground
	// truth); those jobs retry from scratch, which is equally
	// deterministic.
	Resume bool
	// SalvagePartial keeps the best partial profile of a job whose
	// attempts ran out, marking its record Salvaged, instead of
	// returning only an error.
	SalvagePartial bool
	// BreakerThreshold quarantines a job group after this many
	// consecutive permanently-failed jobs; 0 disables the breaker.
	BreakerThreshold int
	// Hooks, when non-nil, instruments every attempt.
	Hooks Hooks
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	return p
}

// backoff returns the deterministic retry delay before the given
// attempt (attempt 2 waits one BackoffBase-ish unit, doubling after).
func (p *Policy) backoff(job, attempt int) time.Duration {
	if p.BackoffBase <= 0 || attempt <= 1 {
		return 0
	}
	d := p.BackoffBase
	for i := 2; i < attempt && d < p.BackoffMax; i++ {
		d *= 2
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	// Half fixed, half jitter: spreads a herd of retries without ever
	// waiting more than d.
	s := p.Seed ^ uint64(job)*0x9e3779b97f4a7c15 ^ uint64(attempt)
	return d/2 + time.Duration(splitmix64(&s)%uint64(d/2+1))
}

// splitmix64 is the standard 64-bit mix (same generator the
// fault-injection harness uses for its plans).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d649bb133111eb
	return z ^ (z >> 31)
}

// Job is one supervised profiling run. It always holds the program,
// which a parallel.Job may leave to its workload, so the compile step
// (a permanent failure when it breaks) happens once, before
// supervision starts.
type Job struct {
	// Name labels the program for records and errors; InputName labels
	// the input.
	Name      string
	InputName string
	// Group keys the circuit breaker; empty defaults to Name.
	Group string
	Prog  *program.Program
	Input []int64
	// Want, when non-empty, is the expected program output; a mismatch
	// on a completed run is a permanent failure.
	Want    string
	Options core.Options
	// Run carries the control-plane settings; Run.Input is ignored —
	// the job's Input wins. Run.StepLimit is absolute across attempts:
	// reaching it ends the job with ClassBudget.
	Run atom.RunOptions
	// Checkpoint, when non-nil, is a serialized checkpoint the first
	// attempt resumes from, under the same rules and integrity checks
	// as one carried between attempts (a daemon's restart path).
	Checkpoint []byte
}

func (j *Job) label() string { return j.Name + "/" + j.InputName }

// stepLimit is the job's absolute instruction limit: Run.StepLimit, or
// the VM default when the job sets none.
func (j *Job) stepLimit() uint64 {
	if j.Run.StepLimit > 0 {
		return j.Run.StepLimit
	}
	return vm.DefaultStepLimit
}

func (j *Job) group() string {
	if j.Group != "" {
		return j.Group
	}
	return j.Name
}

// JobOf converts a pool job to a supervised one, compiling its
// workload up front.
func JobOf(j parallel.Job) (Job, error) {
	prog, err := j.Workload.Compile()
	if err != nil {
		return Job{}, fmt.Errorf("supervise: compiling %s: %w", j.Workload.Name, err)
	}
	return Job{
		Name:      j.Workload.Name,
		InputName: j.Input.Name,
		Prog:      prog,
		Input:     j.Input.Args,
		Want:      j.Input.Want,
		Options:   j.Options,
		Run:       j.Run,
	}, nil
}

// JobReport is one supervised job's outcome.
type JobReport struct {
	Job      Job
	Index    int
	State    State
	Class    Class
	Attempts int
	// Resumed counts attempts that continued from a checkpoint;
	// CorruptCheckpoints counts carried checkpoints that failed their
	// integrity check on resume (each demotes that retry to a fresh
	// start).
	Resumed            int
	CorruptCheckpoints int
	// Outcome and Err describe the last attempt (Err is nil iff the
	// job completed).
	Outcome vm.RunOutcome
	Err     error
	// Profile is the completed profile, or the salvaged partial one
	// when State is StateSalvaged; nil otherwise. Exec summarizes the
	// same attempt's execution.
	Profile *core.Profile
	Exec    *vm.Result
}

// Usable reports whether the job produced a profile worth merging.
func (r *JobReport) Usable() bool {
	return r.Profile != nil && (r.State == StateCompleted || r.State == StateSalvaged)
}

// Record serializes the job's profile with its supervision provenance:
// the last outcome, the attempt count, and the Salvaged mark when the
// profile is partial. Nil when the job has no usable profile.
func (r *JobReport) Record() *core.ProfileRecord {
	if !r.Usable() {
		return nil
	}
	rec := r.Profile.Record(r.Job.Name, r.Job.InputName)
	rec.Attempts = r.Attempts
	if r.State == StateSalvaged {
		rec.Outcome = r.Outcome.String()
		rec.Salvaged = true
	}
	return rec
}

// Report is the outcome of one supervised batch.
type Report struct {
	Jobs []JobReport
	// Tallies by final state.
	Completed, Salvaged, Failed, Quarantined, Aborted int
}

// Run executes jobs under policy on at most workers goroutines (≤ 0
// selects GOMAXPROCS), returning one JobReport per job in job order.
// Like parallel.Run it never fails as a whole.
func Run(ctx context.Context, workers int, jobs []Job, policy Policy) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &supervisor{
		ctx:     ctx,
		policy:  policy.withDefaults(),
		breaker: newBreaker(policy.BreakerThreshold),
	}
	rep := &Report{Jobs: parallel.Map(workers, len(jobs), func(i int) JobReport {
		return s.runJob(jobs[i], i)
	})}
	for i := range rep.Jobs {
		switch rep.Jobs[i].State {
		case StateCompleted:
			rep.Completed++
		case StateSalvaged:
			rep.Salvaged++
		case StateFailed:
			rep.Failed++
		case StateQuarantined:
			rep.Quarantined++
		case StateAborted:
			rep.Aborted++
		}
	}
	return rep
}

type supervisor struct {
	ctx     context.Context
	policy  Policy
	breaker *breaker
}

// attemptOut is what one attempt hands back to the retry loop.
type attemptOut struct {
	outcome vm.RunOutcome
	err     error
	profile *core.Profile
	exec    *vm.Result
	// inst is the instruction count the attempt reached; base is the
	// count it resumed from (0 for a fresh start). faultPC locates a
	// guest fault for the deterministic-fault check.
	inst    uint64
	base    uint64
	faultPC int
	resumed bool
	// atLimit marks a stop at the job's absolute step limit.
	atLimit bool
	// permanent marks failures no retry can fix (setup, output
	// mismatch).
	permanent bool
	// ck is the serialized salvage checkpoint for the next attempt
	// (nil when the run completed or capture failed).
	ck []byte
}

func (s *supervisor) runJob(job Job, index int) JobReport {
	rep := JobReport{Job: job, Index: index}
	if !s.breaker.allow(job.group()) {
		rep.State = StateQuarantined
		rep.Class = ClassPermanent
		rep.Outcome = vm.OutcomeCancelled
		rep.Err = fmt.Errorf("supervise: %s quarantined: breaker open for group %q", job.label(), job.group())
		return rep
	}

	start := time.Now()
	carried := job.Checkpoint // serialized checkpoint for the next attempt
	var prev *attemptOut
	var last *attemptOut
	class := ClassRetryable

	for attempt := 1; attempt <= s.policy.MaxAttempts; attempt++ {
		if err := s.sleepBackoff(index, attempt); err != nil {
			class = ClassAborted
			break
		}
		if s.policy.TotalBudget > 0 && time.Since(start) >= s.policy.TotalBudget {
			class = ClassBudget
			break
		}
		a := s.attempt(&job, index, attempt, start, carried, &rep)
		rep.Attempts = attempt
		last = a
		carried = a.ck
		class = s.classify(a, prev)
		prev = a
		if class != ClassRetryable {
			break
		}
	}

	if last != nil {
		rep.Outcome = last.outcome
		rep.Err = last.err
		rep.Exec = last.exec
	}
	rep.Class = class
	switch {
	case class == ClassSuccess:
		rep.State = StateCompleted
		rep.Profile = last.profile
	case class == ClassAborted:
		rep.State = StateAborted
		if rep.Err == nil {
			rep.Err = s.ctx.Err()
		}
		if s.policy.SalvagePartial && last != nil && last.profile != nil {
			rep.State = StateSalvaged
			rep.Profile = last.profile
		}
	case s.policy.SalvagePartial && last != nil && last.profile != nil:
		rep.State = StateSalvaged
		rep.Profile = last.profile
	default:
		rep.State = StateFailed
		if rep.Err == nil { // budget exhausted before the first attempt
			rep.Err = fmt.Errorf("supervise: %s: total budget %v exhausted", job.label(), s.policy.TotalBudget)
		}
	}
	if class == ClassRetryable { // attempts ran out on a transient failure
		rep.Class = ClassBudget
	}
	s.breaker.record(job.group(), rep.Class == ClassPermanent)
	return rep
}

// sleepBackoff waits the deterministic backoff delay before attempt,
// honoring supervisor cancellation.
func (s *supervisor) sleepBackoff(index, attempt int) error {
	d := s.policy.backoff(index, attempt)
	if d <= 0 {
		return s.ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.ctx.Done():
		return s.ctx.Err()
	case <-t.C:
		return nil
	}
}

// CanResume reports whether a job's profiler state is fully captured
// by checkpoints. Convergent/custom sampling and full-profile ground
// truth keep state outside the checkpoint, so resuming them would
// diverge from an uninterrupted run; such jobs retry from scratch.
func CanResume(opts core.Options) bool {
	return opts.Convergent == nil && opts.Sampler == nil && !opts.TrackFull
}

// attempt executes one run of the job, resuming from the carried
// checkpoint when possible, and captures a fresh checkpoint when the
// run stops early.
func (s *supervisor) attempt(job *Job, index, attempt int, start time.Time, carried []byte, rep *JobReport) *attemptOut {
	// Decode the carried checkpoint through the same strict integrity
	// gate the on-disk loader uses; damage, or a checkpoint of another
	// program or input, demotes this attempt to a fresh start.
	var resume *core.Checkpoint
	if s.policy.Resume && carried != nil && CanResume(job.Options) {
		ck, err := core.ReadCheckpoint(bytes.NewReader(carried))
		if err != nil || ck.VM == nil || ck.Program != job.Name || ck.Input != job.InputName {
			rep.CorruptCheckpoints++
		} else {
			resume = ck
		}
	}

	r := s.run(job, index, attempt, start, resume)
	if r.Refused {
		// A checkpoint that passed its CRC but does not seed the
		// profiler or restore the VM is as good as corrupt. Nothing ran
		// and no tool was built, so the same attempt starts fresh.
		rep.CorruptCheckpoints++
		resume = nil
		r = s.run(job, index, attempt, start, nil)
	}

	a := &attemptOut{outcome: r.Outcome, err: r.Err}
	if r.Exec == nil {
		// The profiler rejected the job's options: setup, not the run.
		a.permanent = true
		return a
	}
	if resume != nil {
		a.base = resume.InstCount()
		a.resumed = true
		rep.Resumed++
	}
	a.exec = r.Exec
	a.profile = r.Profile
	a.inst = r.Exec.InstCount
	a.faultPC = r.PC
	a.atLimit = r.Outcome == vm.OutcomeLimit && a.inst >= job.stepLimit()
	if r.Outcome == vm.OutcomeCompleted && job.Want != "" && a.exec.Output != job.Want {
		a.err = fmt.Errorf("supervise: %s output mismatch:\n got %q\nwant %q", job.label(), a.exec.Output, job.Want)
		a.permanent = true
	}

	// Hand the salvage checkpoint to the next attempt. The bytes go
	// through the real serializer, so what the hooks see — and the
	// chaos harness corrupts — is exactly what a disk write holds.
	if r.Checkpoint != nil {
		r.Checkpoint.Program = job.Name
		var buf bytes.Buffer
		if core.WriteCheckpoint(&buf, r.Checkpoint) == nil {
			a.ck = buf.Bytes()
			if s.policy.Hooks != nil {
				a.ck = s.policy.Hooks.MangleCheckpoint(index, attempt, a.ck)
			}
		}
	}
	return a
}

// run is one call of parallel.RunJob for an attempt, under the
// attempt's deadline and instruction budget (counted from the resume
// point), with the hooks' tool attached and a checkpoint captured if
// the run stops early. Attempt state comes from the shared parallel
// arena, so retries of the same job, and successive jobs on the same
// worker, reuse the VM memory image and profiler maps.
func (s *supervisor) run(job *Job, index, attempt int, start time.Time, resume *core.Checkpoint) parallel.Ran {
	opts := job.Run
	deadline := opts.Deadline
	if s.policy.AttemptDeadline > 0 {
		d := time.Now().Add(s.policy.AttemptDeadline)
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	if s.policy.TotalBudget > 0 {
		d := start.Add(s.policy.TotalBudget)
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	opts.Deadline = deadline
	if s.policy.AttemptSteps > 0 {
		var base uint64
		if resume != nil {
			base = resume.InstCount()
		}
		limit := base + s.policy.AttemptSteps
		if opts.StepLimit == 0 || limit < opts.StepLimit {
			opts.StepLimit = limit
		}
	}
	x := parallel.Extras{Resume: resume, Capture: true}
	if s.policy.Hooks != nil {
		x.Tool = func(vp *core.ValueProfiler) atom.Tool {
			return s.policy.Hooks.AttemptTool(index, attempt, vp)
		}
	}
	// The job's Want is checked by attempt, so a mismatch reads as the
	// supervisor's error.
	return parallel.RunJob(s.ctx, parallel.Job{
		Prog:    job.Prog,
		Input:   workloads.Input{Name: job.InputName, Args: job.Input},
		Options: job.Options,
		Run:     opts,
	}, x)
}

// classify decides what one attempt's ending means for the job.
func (s *supervisor) classify(a, prev *attemptOut) Class {
	switch a.outcome {
	case vm.OutcomeCompleted:
		if a.err != nil {
			return ClassPermanent // output mismatch
		}
		return ClassSuccess
	case vm.OutcomeCancelled:
		if s.ctx.Err() != nil {
			return ClassAborted
		}
		return ClassRetryable // injected or spurious cancellation
	case vm.OutcomeFaulted:
		if a.permanent {
			return ClassPermanent
		}
		// The same fault at the same site and instruction count two
		// attempts in a row is deterministic guest behavior, not a
		// transient: retrying it is wasted budget.
		if prev != nil && prev.outcome == vm.OutcomeFaulted &&
			prev.faultPC == a.faultPC && prev.inst == a.inst {
			return ClassPermanent
		}
		return ClassRetryable
	case vm.OutcomeDeadline, vm.OutcomeLimit:
		// The absolute step limit spans attempts, so any retry would
		// stop on the same instruction; a resumed attempt that could
		// not advance past its resume point will never finish under
		// this budget either. A per-attempt AttemptSteps slice is not
		// absolute and retries.
		if a.atLimit || (a.resumed && a.inst <= a.base) {
			return ClassBudget
		}
		return ClassRetryable
	}
	return ClassRetryable
}
