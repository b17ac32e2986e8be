package serve

import (
	"encoding/base64"
	"fmt"

	"valueprof/internal/analysis"
	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// WireProgram carries the program of a job request in exactly one of
// two forms: VRISC assembly text, or a base64-encoded VPX1 image.
// Whichever form arrives, the daemon canonicalizes it to a freshly
// saved image, so an assembled submission and its binary twin share
// one cache identity.
type WireProgram struct {
	Asm   string `json:"asm,omitempty"`
	Image string `json:"image,omitempty"`
}

// WireTNV mirrors core.TNVConfig on the wire; the zero value selects
// the paper's defaults.
type WireTNV struct {
	Size          int    `json:"size"`
	Steady        int    `json:"steady"`
	ClearInterval uint64 `json:"clearInterval"`
}

// WireConvergent mirrors core.ConvergentConfig on the wire.
type WireConvergent struct {
	BurstLen    uint64  `json:"burstLen"`
	InitialSkip uint64  `json:"initialSkip"`
	MaxSkip     uint64  `json:"maxSkip"`
	Epsilon     float64 `json:"epsilon"`
}

// JobConfig is the request-budget and profiler configuration of one
// job. Every field is optional; Normalize fills the documented
// defaults, and the normalized form — not the submitted one — feeds
// the job digest, so spelling out a default does not split the cache.
type JobConfig struct {
	// Filter selects profiled instructions: "all" (default, every
	// result-producing instruction) or "loads".
	Filter string `json:"filter,omitempty"`
	// TNV overrides the per-site table configuration.
	TNV *WireTNV `json:"tnv,omitempty"`
	// Convergent enables the paper's intelligent sampler. Convergent
	// jobs restart from scratch after an interruption instead of
	// resuming (sampler state is not checkpointed); either path is
	// deterministic.
	Convergent *WireConvergent `json:"convergent,omitempty"`
	// StepLimit is the job's total instruction budget per input, across
	// attempts and resumes; exceeding it fails the job with error class
	// "budget". 0 = unlimited.
	StepLimit uint64 `json:"stepLimit,omitempty"`
	// DeadlineMs bounds one sub-run's wall-clock time from its first
	// attempt; 0 = unlimited.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// AttemptDeadlineMs bounds a single attempt; a resumed retry
	// continues from the last checkpoint. 0 = unlimited.
	AttemptDeadlineMs int64 `json:"attemptDeadlineMs,omitempty"`
	// MaxAttempts caps runs of one sub-run (retries resume from the
	// carried checkpoint when possible); <= 0 means 1.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// MemSize is the guest memory budget in bytes; 0 = VM default.
	// It may not exceed vm.MaxMemSize and must hold the program's data
	// segment.
	MemSize int `json:"memSize,omitempty"`
	// ChargeHooks makes analysis calls cost simulated cycles.
	ChargeHooks bool `json:"chargeHooks,omitempty"`
	// SalvagePartial keeps the best partial profile of a job whose
	// budget ran out (state "salvaged", served from the job, never
	// cached) instead of failing outright.
	SalvagePartial bool `json:"salvagePartial,omitempty"`
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Client identifies the tenant for fair scheduling; empty maps to
	// "anonymous".
	Client  string      `json:"client,omitempty"`
	Program WireProgram `json:"program"`
	// Inputs holds one or more input vectors; the job profiles each and
	// serves the merged record. At least one is required (use [[]] for
	// a program that reads nothing).
	Inputs [][]int64 `json:"inputs"`
	Config JobConfig `json:"config"`
}

// RequestError is a rejected submission: Class is the documented wire
// error class, Msg the human-readable detail.
type RequestError struct {
	Class string
	Msg   string
}

func (e *RequestError) Error() string { return e.Class + ": " + e.Msg }

func reqErr(class, format string, args ...any) *RequestError {
	return &RequestError{Class: class, Msg: fmt.Sprintf(format, args...)}
}

// Normalize validates cfg and fills defaults in place. Errors carry
// wire class "config".
func (c *JobConfig) Normalize() error {
	switch c.Filter {
	case "":
		c.Filter = "all"
	case "all", "loads":
	default:
		return reqErr(ClassConfig, "unknown filter %q (want \"all\" or \"loads\")", c.Filter)
	}
	if c.TNV == nil {
		d := core.DefaultTNVConfig()
		c.TNV = &WireTNV{Size: d.Size, Steady: d.Steady, ClearInterval: d.ClearInterval}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.DeadlineMs < 0 || c.AttemptDeadlineMs < 0 || c.MemSize < 0 {
		return reqErr(ClassConfig, "budgets must be non-negative")
	}
	// Validate through the same gates the profiler itself applies, so
	// a config the daemon accepts is one the run cannot later reject.
	// The probe profiler comes from (and returns to) the arena — serve
	// code never constructs profilers directly.
	vp, err := parallel.AcquireProfiler(c.coreOptions())
	if err != nil {
		return reqErr(ClassConfig, "%v", err)
	}
	parallel.ReleaseProfiler(vp)
	return nil
}

// coreOptions maps the normalized config to profiler options.
func (c *JobConfig) coreOptions() core.Options {
	opts := core.Options{TNV: core.TNVConfig{
		Size:          c.TNV.Size,
		Steady:        c.TNV.Steady,
		ClearInterval: c.TNV.ClearInterval,
	}}
	if c.Filter == "loads" {
		opts.Filter = core.LoadsOnly
	}
	if c.Convergent != nil {
		opts.Convergent = &core.ConvergentConfig{
			BurstLen:    c.Convergent.BurstLen,
			InitialSkip: c.Convergent.InitialSkip,
			MaxSkip:     c.Convergent.MaxSkip,
			Epsilon:     c.Convergent.Epsilon,
		}
	}
	return opts
}

// runOptions maps the normalized config to the VM control plane.
func (c *JobConfig) runOptions() atom.RunOptions {
	return atom.RunOptions{
		ChargeHooks: c.ChargeHooks,
		StepLimit:   c.StepLimit,
		MemSize:     c.MemSize,
	}
}

// decodeProgram canonicalizes a submitted program: exactly one of the
// two forms must be present, the result must pass the structural
// image gate (program.Load), the bytecode verifier (analysis.Verify)
// and vm.CheckFit at the largest memory size, and the returned bytes
// are the freshly saved canonical image the digest is computed over.
func decodeProgram(wp WireProgram) (*program.Program, []byte, error) {
	var prog *program.Program
	switch {
	case wp.Asm != "" && wp.Image != "":
		return nil, nil, reqErr(ClassBadRequest, "program.asm and program.image are mutually exclusive")
	case wp.Asm != "":
		p, err := asm.Assemble(wp.Asm)
		if err != nil {
			return nil, nil, reqErr(ClassInvalidProgram, "%v", err)
		}
		prog = p
	case wp.Image != "":
		raw, err := base64.StdEncoding.DecodeString(wp.Image)
		if err != nil {
			return nil, nil, reqErr(ClassInvalidProgram, "program.image is not valid base64: %v", err)
		}
		p, err := program.Load(bytesReader(raw))
		if err != nil {
			return nil, nil, reqErr(ClassInvalidProgram, "%v", err)
		}
		prog = p
	default:
		return nil, nil, reqErr(ClassBadRequest, "program.asm or program.image is required")
	}
	if err := analysis.Verify(prog).Err(); err != nil {
		return nil, nil, reqErr(ClassInvalidProgram, "%v", err)
	}
	// A data segment no permitted memory size can hold is the
	// program's fault; one the job's memSize cannot hold is the
	// config's (Server.submit).
	if err := vm.CheckFit(prog, vm.MaxMemSize); err != nil {
		return nil, nil, reqErr(ClassInvalidProgram, "%v", err)
	}
	image, err := saveImage(prog)
	if err != nil {
		return nil, nil, reqErr(ClassInternal, "canonicalizing image: %v", err)
	}
	return prog, image, nil
}
