package difftest

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"valueprof/internal/core"
	"valueprof/internal/faultinject"
	"valueprof/internal/progen"
	"valueprof/internal/supervise"
)

// This file is the pool-level chaos harness: one seed generates one
// program, fans it out as several supervised jobs (one per input
// variant), and lets faultinject.PoolChaos kill, stall, and corrupt
// the attempts. The properties checked are the supervised runtime's
// contract:
//
//   - every job ends Completed or Salvaged — chaos within the retry
//     budget must never produce a lost job;
//   - a job that completed (with or without retries) has a profile
//     byte-identical to its fault-free baseline run;
//   - every salvaged partial record passes the strict loader;
//   - the merge of all usable records passes the strict loader — no
//     corrupt merged profiles, ever.
//
// Hangs are not checked here: the caller (vfuzz -chaos) wraps each
// seed in a wall-clock watchdog.

// ChaosOptions tunes the chaos sweep. Zero values select defaults
// sized for CI: small bursts of chaos on every job with a guaranteed
// clean attempt inside the retry budget.
type ChaosOptions struct {
	// Variants is the number of supervised jobs (input variants) per
	// seed (default 4).
	Variants int
	// Workers sizes the pool (default 4, so jobs genuinely race).
	Workers int
	// StepLimit bounds each attempt's baseline execution (default 8M).
	StepLimit uint64
	// MaxAttempts bounds retries per job (default CleanAfter+3).
	MaxAttempts int
	// CleanAfter is the last attempt chaos may disturb (default 3).
	CleanAfter int
	// Stall is the injected stall duration (default 1ms; keep small —
	// stalls burn real wall clock).
	Stall time.Duration
	// CorruptEvery corrupts ~1/N carried checkpoints (default 2).
	CorruptEvery int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Variants <= 0 {
		o.Variants = 4
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.StepLimit == 0 {
		o.StepLimit = 8 << 20
	}
	if o.CleanAfter <= 0 {
		o.CleanAfter = 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = o.CleanAfter + 3
	}
	if o.Stall == 0 {
		o.Stall = time.Millisecond
	}
	if o.CorruptEvery == 0 {
		o.CorruptEvery = 2
	}
	return o
}

// ChaosReport is the outcome of one seed's chaos check.
type ChaosReport struct {
	Seed uint64 `json:"seed"`
	Jobs int    `json:"jobs"`
	// Final job states.
	Completed int `json:"completed"`
	Salvaged  int `json:"salvaged"`
	// Supervision activity.
	Retried            int `json:"retried"` // jobs needing >1 attempt
	Resumed            int `json:"resumed"` // checkpoint-resumed attempts
	CorruptCheckpoints int `json:"corruptCheckpoints"`
	// Chaos activity.
	Injected  int `json:"injected"`
	Stalled   int `json:"stalled"`
	Corrupted int `json:"corrupted"`

	Divergences []Divergence `json:"divergences,omitempty"`
}

// Failed reports whether any property broke.
func (r *ChaosReport) Failed() bool { return len(r.Divergences) > 0 }

func (r *ChaosReport) fail(property, detail string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{
		Property: property, PC: -1, Detail: fmt.Sprintf(detail, args...),
	})
}

// chaosRecordBytes serializes a job's record with the attempt count
// normalized away: a retried success may say it retried, but the
// profile payload must match the fault-free run byte for byte.
func chaosRecordBytes(r *supervise.JobReport) ([]byte, error) {
	rec := r.Record()
	if rec == nil {
		return nil, fmt.Errorf("no usable record (state %v)", r.State)
	}
	rec.Attempts = 0
	return rec.JSON(), nil
}

// ChaosCheck runs one seed's program through the supervised pool under
// injected chaos and checks the runtime's robustness contract.
func ChaosCheck(seed uint64, opts ChaosOptions) *ChaosReport {
	o := opts.withDefaults()
	rep := &ChaosReport{Seed: seed, Jobs: o.Variants}

	spec := progen.Generate(progen.Config{Seed: seed})
	prog, err := progen.Build(&spec)
	if err != nil {
		rep.fail("generate", "building seed %d: %v", seed, err)
		return rep
	}
	name := fmt.Sprintf("seed%d", seed)
	jobs := make([]supervise.Job, o.Variants)
	for i := range jobs {
		jobs[i] = supervise.Job{
			Name:      name,
			InputName: fmt.Sprintf("in%d", i),
			Prog:      prog,
			Input:     progen.InputFor(&spec, uint64(i)),
			Options:   core.Options{TNV: core.DefaultTNVConfig()},
		}
		jobs[i].Run.StepLimit = o.StepLimit
		jobs[i].Run.Quantum = 64 // tiny programs must still hit control checks
	}

	// Fault-free baseline, one record per variant.
	base := supervise.Run(context.Background(), o.Workers, jobs, supervise.Policy{})
	want := make([][]byte, o.Variants)
	for i := range base.Jobs {
		if base.Jobs[i].State != supervise.StateCompleted {
			rep.fail("baseline", "job %s did not complete: %v (%v)",
				jobs[i].InputName, base.Jobs[i].Outcome, base.Jobs[i].Err)
			return rep
		}
		if want[i], err = chaosRecordBytes(&base.Jobs[i]); err != nil {
			rep.fail("baseline", "job %s: %v", jobs[i].InputName, err)
			return rep
		}
	}
	var maxInst uint64
	for i := range base.Jobs {
		if n := base.Jobs[i].Exec.InstCount; n > maxInst {
			maxInst = n
		}
	}

	chaos := &faultinject.PoolChaos{
		Seed:         seed,
		MaxAt:        maxInst,
		CleanAfter:   o.CleanAfter,
		Stall:        o.Stall,
		CorruptEvery: o.CorruptEvery,
	}
	// A quarter of the seeds get a retry budget smaller than the chaos
	// window, so some jobs exhaust their attempts mid-chaos and the
	// salvage path gets swept too (the rest verify full recovery).
	maxAttempts := o.MaxAttempts
	if seed%4 == 0 {
		maxAttempts = 2
	}
	res := supervise.Run(context.Background(), o.Workers, jobs, supervise.Policy{
		MaxAttempts:    maxAttempts,
		Resume:         true,
		SalvagePartial: true,
		Seed:           seed,
		Hooks:          chaos,
	})
	rep.Injected, rep.Stalled, rep.Corrupted = chaos.Stats()

	var mergeable []*core.ProfileRecord
	for i := range res.Jobs {
		r := &res.Jobs[i]
		rep.Resumed += r.Resumed
		rep.CorruptCheckpoints += r.CorruptCheckpoints
		if r.Attempts > 1 {
			rep.Retried++
		}
		switch r.State {
		case supervise.StateCompleted:
			rep.Completed++
			got, err := chaosRecordBytes(r)
			if err != nil {
				rep.fail("identity", "job %s: %v", r.Job.InputName, err)
				continue
			}
			if !bytes.Equal(got, want[i]) {
				rep.fail("identity", "job %s (attempts %d, resumed %d): retried profile differs from fault-free run",
					r.Job.InputName, r.Attempts, r.Resumed)
				continue
			}
			mergeable = append(mergeable, r.Record())
		case supervise.StateSalvaged:
			rep.Salvaged++
			rec := r.Record()
			if rec == nil || !rec.Salvaged {
				rep.fail("salvage", "job %s salvaged without provenance mark", r.Job.InputName)
				continue
			}
			if err := strictRecordRoundTrip(rec); err != nil {
				rep.fail("salvage", "job %s salvaged record fails strict load: %v", r.Job.InputName, err)
				continue
			}
			mergeable = append(mergeable, rec)
		default:
			rep.fail("job-state", "job %s ended %v (%v) under chaos the retry budget should absorb",
				r.Job.InputName, r.State, r.Err)
		}
	}

	// No corrupt merged profiles: the fold of every usable record must
	// itself survive the strict loader.
	if len(mergeable) > 0 {
		merged := mergeable[0]
		for _, rec := range mergeable[1:] {
			if merged, err = core.MergeRecords(merged, rec); err != nil {
				rep.fail("merge", "merging records: %v", err)
				return rep
			}
		}
		if err := strictRecordRoundTrip(merged); err != nil {
			rep.fail("merge", "merged record fails strict load: %v", err)
		}
		if rep.Salvaged > 0 && !merged.Salvaged {
			rep.fail("merge", "merge including salvaged partials lost the Salvaged mark")
		}
	} else {
		rep.fail("merge", "no usable profiles at all out of %d jobs", o.Variants)
	}
	return rep
}

// strictRecordRoundTrip pushes a record through the serializer and the
// strict loader, the gate every artifact must pass.
func strictRecordRoundTrip(rec *core.ProfileRecord) error {
	_, err := core.ReadProfileRecord(bytes.NewReader(rec.JSON()))
	return err
}
