package parallel

import (
	"context"
	"fmt"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/vm"
)

// Extras are RunJob's optional inputs. The zero value asks for a plain
// fresh run, which is what Run does for every job.
type Extras struct {
	// Resume, when non-nil, is a checkpoint of this job to continue
	// from. RunJob refuses it when the profiler cannot be seeded with it
	// or the VM cannot be restored from it, before Tool is called and
	// before any instruction runs.
	Resume *core.Checkpoint
	// Tool, when non-nil, builds a tool from the job's profiler to
	// attach beside it (nil for none). It is called once, just before
	// the run starts, so never for a refused Resume.
	Tool func(vp *core.ValueProfiler) atom.Tool
	// Capture asks for a checkpoint of a run that stops early.
	Capture bool
}

// Ran is RunJob's report: the job's Result plus the machine state a
// retry loop reads off the run.
type Ran struct {
	Result
	// PC is where the run stopped: the faulting instruction after a
	// guest fault.
	PC int
	// Refused marks a Resume checkpoint RunJob would not continue from.
	// Err says why, and nothing ran.
	Refused bool
	// Checkpoint is the captured state of a run that stopped early
	// under Extras.Capture, tagged with the job's workload name (empty
	// without a workload) and input name. It is nil after a completed
	// run, and when capturing failed with CaptureErr.
	Checkpoint *core.Checkpoint
	CaptureErr error
}

// RunJob runs one job on the shared arena: its own profiler and VM,
// acquired and released here, on a program shared read-only. It is the
// one place a VM is acquired and instrumented for a profiled run;
// Run, internal/supervise and vprof's single run all go through it.
//
// Profile is non-nil whenever the run started, even if it ended early,
// and Err is non-nil iff the run did not complete cleanly (including a
// mismatch with the input's Want output).
func RunJob(ctx context.Context, job Job, x Extras) Ran {
	r := Ran{Result: Result{Job: job}}
	prog := job.Prog
	if prog == nil {
		var err error
		if prog, err = job.Workload.Compile(); err != nil {
			r.Outcome, r.Err = vm.OutcomeFaulted, err
			return r
		}
	}
	vp, err := shared.AcquireProfiler(job.Options)
	if err != nil {
		r.Outcome, r.Err = vm.OutcomeFaulted, err
		return r
	}
	opts := job.Run
	opts.Input = job.Input.Args
	v := shared.AcquireVM(prog, opts.EffectiveMemSize())
	if x.Resume != nil {
		// Seeding and restoring come first so a checkpoint that does
		// not fit is refused before anything is built or run. Restore
		// and PrepareOn write disjoint VM state.
		err := vp.Seed(x.Resume)
		if err != nil {
			err = fmt.Errorf("resuming: %w", err)
		} else if err = x.Resume.RestoreVM(v); err != nil {
			err = fmt.Errorf("restoring VM state: %w", err)
		}
		if err != nil {
			shared.ReleaseVM(v)
			shared.ReleaseProfiler(vp)
			r.Outcome, r.Err, r.Refused = vm.OutcomeFaulted, err, true
			return r
		}
	}
	var tool atom.Tool
	if x.Tool != nil {
		tool = x.Tool(vp)
	}
	// PrepareOn instruments with every tool it is given, so a nil tool
	// is left out of the call.
	if tool != nil {
		atom.PrepareOn(v, opts, vp, tool)
	} else {
		atom.PrepareOn(v, opts, vp)
	}
	outcome, err := v.RunControlled(ctx)
	res := vm.ResultOf(v, outcome)
	r.PC = v.PC
	if x.Capture && outcome != vm.OutcomeCompleted {
		program := ""
		if job.Workload != nil {
			program = job.Workload.Name
		}
		r.Checkpoint, r.CaptureErr = core.CheckpointOf(vp, v, program, job.Input.Name)
	}
	shared.ReleaseVM(v)
	r.Profile = vp.Profile()
	shared.ReleaseProfiler(vp)
	r.Exec = res
	r.Outcome = outcome
	r.Err = err
	if err == nil && job.Input.Want != "" && res.Output != job.Input.Want {
		r.Err = fmt.Errorf("parallel: %s output mismatch:\n got %q\nwant %q", job.Name(), res.Output, job.Input.Want)
	}
	return r
}
