package main

import (
	"bytes"
	"context"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// traced is one traced job's outcome.
type traced struct {
	exec *vm.Result
	prof *core.Profile
	err  error
	secs float64 // the job span's duration
}

// tracedJob profiles one job with a span around every call into a
// layer, making the calls parallel.Run makes for one job at width 1,
// in the same order, so the spans split the same work. The job's
// serialized record is written to rec.
func tracedJob(ctx context.Context, tr *Tracer, parent, id int, pj parallel.Job, rec *bytes.Buffer) traced {
	job := tr.Begin("bench.job", parent, id)
	in := func(name string, f func()) {
		sp := tr.Begin(name, job, id)
		f()
		tr.End(sp)
	}
	var (
		t       traced
		prog    *program.Program
		vp      *core.ValueProfiler
		machine *vm.VM
	)
	in("workloads.compile", func() { prog, t.err = pj.Workload.Compile() })
	if t.err == nil {
		in("parallel.acquire", func() { vp, t.err = parallel.AcquireProfiler(pj.Options) })
	}
	if t.err == nil {
		opts := pj.Run
		opts.Input = pj.Input.Args
		in("parallel.acquire", func() { machine = parallel.AcquireVM(prog, opts.EffectiveMemSize()) })
		in("atom.prepare", func() { atom.PrepareOn(machine, opts, vp) })
		in("vm.run", func() {
			var outcome vm.RunOutcome
			outcome, t.err = machine.RunControlled(ctx)
			t.exec = vm.ResultOf(machine, outcome)
		})
		in("parallel.release", func() { parallel.ReleaseVM(machine) })
		in("core.profile", func() { t.prof = vp.Profile() })
		in("parallel.release", func() { parallel.ReleaseProfiler(vp) })
		in("core.record", func() {
			if err := t.prof.Record(pj.Workload.Name, pj.Input.Name).WriteJSON(rec); t.err == nil {
				t.err = err
			}
		})
	}
	tr.End(job)
	t.secs = float64(tr.Dur(job)) / 1e9
	return t
}

// bare is one uninstrumented run's outcome.
type bare struct {
	output string
	insts  uint64
	ns     float64 // the vm.bare span: RunControlled alone
	err    error
}

// bareRun runs a program on an arena VM with no tools attached, the
// dispatch cost hooked runs are measured against.
func bareRun(ctx context.Context, tr *Tracer, parent, id int, w *workloads.Workload, args []int64) bare {
	job := tr.Begin("bench.job", parent, id)
	defer tr.End(job)
	prog, err := w.Compile()
	if err != nil {
		return bare{err: err}
	}
	opts := atom.RunOptions{Input: args}
	v := parallel.AcquireVM(prog, opts.EffectiveMemSize())
	atom.PrepareOn(v, opts)
	sp := tr.Begin("vm.bare", job, id)
	_, err = v.RunControlled(ctx)
	tr.End(sp)
	b := bare{output: v.Output.String(), insts: v.InstCount, ns: float64(tr.Dur(sp)), err: err}
	parallel.ReleaseVM(v)
	return b
}
