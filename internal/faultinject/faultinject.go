// Package faultinject is a deterministic fault-injection harness for
// the profiling runtime. It kills instrumented runs at exact,
// reproducible instruction counts — with a guest fault, a context
// cancellation, a deadline expiry, or a step-limit hit — and wraps
// writers with injected I/O failures, so tests can prove that every
// profiler degrades gracefully and every on-disk artifact survives a
// crash at any point.
//
// The injector is an atom.Tool: attach it to a run alongside the
// profilers under test. Injection is driven by the VM's instruction
// counter, not wall-clock time, so a seed fully determines where a run
// dies.
package faultinject

import (
	"context"
	"fmt"
	"math"
	"sort"

	"valueprof/internal/atom"
	"valueprof/internal/vm"
)

// Kind selects which termination mechanism an injection triggers. Each
// kind surfaces through the run loop exactly like the organic event it
// imitates, so the salvage paths under test cannot tell the difference.
type Kind int

const (
	// KindFault injects a guest fault (vm.Fault), as if the program
	// dereferenced a bad pointer.
	KindFault Kind = iota
	// KindCancel injects a context cancellation, as if the operator
	// hit Ctrl-C.
	KindCancel
	// KindDeadline injects a deadline expiry.
	KindDeadline
	// KindLimit injects step-limit exhaustion.
	KindLimit
	numKinds = iota
)

func (k Kind) String() string {
	switch k {
	case KindFault:
		return "fault"
	case KindCancel:
		return "cancel"
	case KindDeadline:
		return "deadline"
	case KindLimit:
		return "limit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Outcome returns the vm.RunOutcome this kind of injection produces.
func (k Kind) Outcome() vm.RunOutcome {
	switch k {
	case KindFault:
		return vm.OutcomeFaulted
	case KindCancel:
		return vm.OutcomeCancelled
	case KindDeadline:
		return vm.OutcomeDeadline
	case KindLimit:
		return vm.OutcomeLimit
	}
	return vm.OutcomeFaulted
}

// Injection schedules one kill: the run dies with Kind once the VM's
// instruction count reaches At.
type Injection struct {
	At   uint64
	Kind Kind
}

// Injector is an atom.Tool that fires scheduled injections. It keeps a
// record of what fired for assertions.
type Injector struct {
	plan   []Injection
	cancel context.CancelFunc
	fired  []Injection
}

// New creates an injector firing the given injections, earliest first.
// Injections at the same instruction count fire in argument order (the
// first one kills the run).
func New(injs ...Injection) *Injector {
	plan := append([]Injection(nil), injs...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return &Injector{plan: plan}
}

// NewSeeded derives a single pseudo-random injection from seed: a kill
// at an instruction count in [1, maxAt] with one of the given kinds
// (all kinds when none are listed). The same seed always produces the
// same plan, so a failing fuzz-style test reproduces exactly.
func NewSeeded(seed, maxAt uint64, kinds ...Kind) *Injector {
	if maxAt == 0 {
		maxAt = 1
	}
	if len(kinds) == 0 {
		kinds = []Kind{KindFault, KindCancel, KindDeadline, KindLimit}
	}
	r1 := splitmix64(&seed)
	r2 := splitmix64(&seed)
	return New(Injection{
		At:   1 + r1%maxAt,
		Kind: kinds[r2%uint64(len(kinds))],
	})
}

// splitmix64 is the standard 64-bit mix, good enough for spreading
// injection points.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d649bb133111eb
	return z ^ (z >> 31)
}

// Bind attaches a cancel function invoked when a KindCancel injection
// fires, mirroring how a real SIGINT handler cancels the run context.
// Optional: the injection kills the run either way.
func (inj *Injector) Bind(cancel context.CancelFunc) { inj.cancel = cancel }

// Fired returns the injections that have fired.
func (inj *Injector) Fired() []Injection { return inj.fired }

// Instrument implements atom.Tool.
func (inj *Injector) Instrument(ix *atom.Instrumenter) {
	ix.AddStep(func(v *vm.VM) (uint64, error) {
		for len(inj.plan) > 0 && v.InstCount >= inj.plan[0].At {
			next := inj.plan[0]
			inj.plan = inj.plan[1:]
			inj.fired = append(inj.fired, next)
			switch next.Kind {
			case KindFault:
				return 0, &vm.Fault{PC: v.PC, Msg: fmt.Sprintf("injected fault at inst %d", next.At)}
			case KindCancel:
				if inj.cancel != nil {
					inj.cancel()
				}
				return 0, context.Canceled
			case KindDeadline:
				return 0, context.DeadlineExceeded
			case KindLimit:
				return 0, &vm.LimitError{Limit: next.At, PC: v.PC}
			}
		}
		if len(inj.plan) == 0 {
			return math.MaxUint64, nil
		}
		return inj.plan[0].At, nil
	})
}
