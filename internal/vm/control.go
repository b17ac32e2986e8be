package vm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"valueprof/internal/isa"
)

// DefaultQuantum is the number of instructions executed between control
// checks (context cancellation and wall-clock deadline) in
// RunControlled. Amortizing the checks keeps the interpreter fast path
// free of time.Now / atomic loads.
const DefaultQuantum = 4096

// RunOutcome classifies how a run ended. Every outcome other than
// OutcomeCompleted still leaves the VM (and any attached analysis
// tools) holding valid partial state up to the stopping point; callers
// salvage profiles rather than discarding them.
type RunOutcome int

const (
	// OutcomeCompleted means the program exited normally.
	OutcomeCompleted RunOutcome = iota
	// OutcomeFaulted means the guest program faulted (bad memory
	// access, division by zero, illegal pc, ...).
	OutcomeFaulted
	// OutcomeDeadline means the wall-clock deadline expired.
	OutcomeDeadline
	// OutcomeCancelled means the run context was cancelled (SIGINT,
	// caller shutdown).
	OutcomeCancelled
	// OutcomeLimit means the instruction step limit was exhausted.
	OutcomeLimit
)

func (o RunOutcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFaulted:
		return "faulted"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeLimit:
		return "limit"
	}
	return fmt.Sprintf("RunOutcome(%d)", int(o))
}

// Partial reports whether the run stopped before the program finished,
// i.e. whether any collected profile covers only a prefix of the run.
func (o RunOutcome) Partial() bool { return o != OutcomeCompleted }

// LimitError reports step-limit exhaustion. It is distinct from Fault
// so that budget exhaustion (a host policy decision) is not confused
// with guest misbehavior.
type LimitError struct {
	Limit uint64
	PC    int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("vm: step limit %d exceeded at pc %d", e.Limit, e.PC)
}

// StepFn is a scheduled control routine. It runs after an instruction
// (and after that instruction's hooks) and returns the InstCount after
// which it next wants to run; the run loop executes every instruction
// in between without calling it. The first call follows the first
// instruction executed once the routine is attached, so a routine can
// arm lazily from the count it first sees (on a restored VM, the
// restored count + 1). A returned count at or below the current
// InstCount means "after the next instruction", so a routine wanting
// every instruction returns InstCount+1; math.MaxUint64 means never.
//
// Returning a non-nil error stops the run; the error is classified
// into a RunOutcome (a *Fault behaves like a guest fault,
// context.Canceled like a cancellation, and so on), which is what the
// fault-injection harness uses to kill runs at exact instruction
// counts. A fault or the step limit arriving before a routine's due
// point ends the run without calling it; a routine due at the exiting
// instruction runs once, after it.
type StepFn func(*VM) (next uint64, err error)

// stepRoutine is an attached StepFn and the InstCount after which it
// next runs (0 until a run arms it).
type stepRoutine struct {
	fn  StepFn
	due uint64
}

// HookStep attaches a scheduled control routine (see StepFn).
// Checkpointing, progress reporting and fault injection attach here.
// Routines due at the same instruction run in attach order. Attach
// them before RunControlled: the run loop reads schedules only between
// blocks, so a routine attached by a hook mid-run may first be called
// late (or only in the next run), never early. ClearHooks drops
// routines together with their schedules.
func (v *VM) HookStep(fn StepFn) {
	v.steps = append(v.steps, stepRoutine{fn: fn})
}

// armSteps schedules routines that have not run yet, or whose due
// point a Restore moved past, after the next instruction, and returns
// the earliest due point (math.MaxUint64 with no routines).
func (v *VM) armSteps() uint64 {
	due := uint64(math.MaxUint64)
	for i := range v.steps {
		s := &v.steps[i]
		s.due = max(s.due, v.InstCount+1)
		due = min(due, s.due)
	}
	return due
}

// runSteps calls, in attach order, every routine due at the current
// InstCount, records when each next wants to run, and returns the
// earliest due point.
func (v *VM) runSteps() (uint64, error) {
	due := uint64(math.MaxUint64)
	for i := range v.steps {
		if v.steps[i].due <= v.InstCount {
			next, err := v.steps[i].fn(v)
			if err != nil {
				return 0, err
			}
			v.steps[i].due = max(next, v.InstCount+1)
		}
		due = min(due, v.steps[i].due)
	}
	return due, nil
}

// ClassifyError maps an error returned by a step routine (or by the run
// loop itself) onto a RunOutcome.
func ClassifyError(err error) RunOutcome {
	if err == nil {
		return OutcomeCompleted
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return OutcomeDeadline
	}
	if errors.Is(err, context.Canceled) {
		return OutcomeCancelled
	}
	var le *LimitError
	if errors.As(err, &le) {
		return OutcomeLimit
	}
	return OutcomeFaulted
}

// RunControlled executes until the program exits, the guest faults, the
// step limit is exhausted, ctx is cancelled, or the VM's Deadline
// passes. ctx and the deadline are checked once per quantum
// (v.Quantum, default DefaultQuantum); faults and the step limit are
// exact.
//
// Unlike Run, a stopped run is not treated as a total loss: the VM
// state (and everything instrumentation hooks accumulated) remains
// valid up to the stopping point, end-of-program hooks still run so
// analysis tools can finalize, and the outcome tells the caller what
// interrupted the run. err is nil iff the outcome is OutcomeCompleted.
func (v *VM) RunControlled(ctx context.Context) (RunOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	quantum := v.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	deadline := v.Deadline
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	outcome, err := v.runLoop(ctx, quantum, deadline)
	// End-of-program analysis hooks run for every outcome so that
	// tools which finalize at program end still salvage partial runs.
	if v.atEnd != nil {
		ev := &Event{VM: v, PC: v.PC}
		for _, h := range v.atEnd {
			h(ev)
		}
	}
	return outcome, err
}

// runLoop executes in blocks. A block ends at the nearest control
// point: the next quantum check, StepLimit, or the earliest step
// routine due. Inside a block the per-instruction path tests neither
// the limit nor the routines; both are handled between blocks, so
// faults, the step limit and routine calls stay exact.
func (v *VM) runLoop(ctx context.Context, quantum uint64, deadline time.Time) (RunOutcome, error) {
	code := v.Prog.Code
	// Hook attachment sets bits in this array in place, so the alias
	// stays valid even if a hook attaches more hooks mid-run.
	bits := v.hookBits
	due := v.armSteps()
	// The quantum counts down from run start on its own, so a block cut
	// short by a routine does not move the control checks.
	var untilCheck uint64 // 0 → perform control checks now
	for !v.Halted {
		if untilCheck == 0 {
			untilCheck = quantum
			if err := ctx.Err(); err != nil {
				return ClassifyError(err), err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return OutcomeDeadline, context.DeadlineExceeded
			}
		}

		if v.InstCount >= v.StepLimit {
			return OutcomeLimit, &LimitError{Limit: v.StepLimit, PC: v.PC}
		}
		end := v.StepLimit
		if untilCheck < end-v.InstCount {
			end = v.InstCount + untilCheck
		}
		end = min(end, due)
		start := v.InstCount

		for v.InstCount < end && !v.Halted {
			pc := v.PC
			if pc < 0 || pc >= len(code) {
				err := v.fault("pc %d out of range", pc)
				return OutcomeFaulted, err
			}
			in := code[pc]

			b := bits[pc]
			if b&hookBeforeBit != 0 {
				ev := &v.scratch
				*ev = Event{VM: v, PC: pc, Inst: in}
				v.runHooks(v.before[pc], ev)
			}

			value, addr, err := handlers[in.Op](v, pc, in)
			if err != nil {
				return OutcomeFaulted, err
			}
			v.InstCount++
			v.Cycles += uint64(in.Op.Cycles())

			if b&hookBufBit != 0 {
				// The buffered sink replaces one closure-based after-hook:
				// same per-value analysis-call count and cycle charge,
				// delivered to the analysis out of line in batches.
				v.AnalysisCalls++
				if v.ChargeHooks {
					v.Cycles += AnalysisCallCycles
				}
				v.bufs[pc].push(value)
			}
			if b&hookAfterBit != 0 {
				ev := &v.scratch
				*ev = Event{VM: v, PC: pc, Inst: in, Value: value, Addr: addr}
				v.runHooks(v.after[pc], ev)
			}
		}
		untilCheck -= v.InstCount - start

		if v.InstCount >= due {
			var err error
			if due, err = v.runSteps(); err != nil {
				return ClassifyError(err), err
			}
		}
	}
	return OutcomeCompleted, nil
}

// Snapshot is a deep copy of a VM's mutable execution state, sufficient
// to resume the run on a fresh VM of the same program (hooks and the
// Input queue are not part of the snapshot; the resuming caller
// re-attaches instrumentation and re-supplies the same input, and
// InputPos records how much of it was already consumed).
type Snapshot struct {
	PC            int
	Regs          []int64
	Mem           []byte
	Cycles        uint64
	InstCount     uint64
	AnalysisCalls uint64
	Output        string
	InputPos      int
	ExitStatus    int64
	Halted        bool
}

// Snapshot captures the VM's current execution state.
func (v *VM) Snapshot() *Snapshot {
	s := &Snapshot{
		PC:            v.PC,
		Regs:          make([]int64, len(v.Regs)),
		Mem:           make([]byte, len(v.Mem)),
		Cycles:        v.Cycles,
		InstCount:     v.InstCount,
		AnalysisCalls: v.AnalysisCalls,
		Output:        v.Output.String(),
		InputPos:      v.inputPos,
		ExitStatus:    v.ExitStatus,
		Halted:        v.Halted,
	}
	copy(s.Regs, v.Regs[:])
	copy(s.Mem, v.Mem)
	return s
}

// Restore rewinds the VM to a previously captured snapshot. Attached
// hooks and the Input queue are preserved; memory is resized to the
// snapshot's size if it differs.
func (v *VM) Restore(s *Snapshot) error {
	if len(s.Regs) != isa.NumRegs {
		return fmt.Errorf("vm: snapshot has %d registers, want %d", len(s.Regs), isa.NumRegs)
	}
	if len(s.Mem) < minValidAddr {
		return fmt.Errorf("vm: snapshot memory %d bytes is too small", len(s.Mem))
	}
	copy(v.Regs[:], s.Regs)
	if len(v.Mem) != len(s.Mem) {
		v.Mem = make([]byte, len(s.Mem))
	}
	copy(v.Mem, s.Mem)
	v.PC = s.PC
	v.Cycles = s.Cycles
	v.InstCount = s.InstCount
	v.AnalysisCalls = s.AnalysisCalls
	v.Output.Reset()
	v.Output.WriteString(s.Output)
	v.inputPos = s.InputPos
	v.ExitStatus = s.ExitStatus
	v.Halted = s.Halted
	return nil
}
