package vm

import (
	"context"
	"encoding/binary"
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

// runLoop executes in blocks, each run by runBlock. A block ends at
// the nearest control point: the next quantum check, StepLimit, or the
// earliest step routine due. Inside a block the per-instruction path
// tests neither the limit nor the routines; both are handled between
// blocks, so faults, the step limit and routine calls stay exact.
func (v *VM) runLoop(ctx context.Context, quantum uint64, deadline time.Time) (RunOutcome, error) {
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

		if err := v.runBlock(end); err != nil {
			return OutcomeFaulted, err
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

// runBlock executes instructions until InstCount reaches end or the
// program halts, and returns the guest fault that stops it early.
//
// Every opcode runs inline in one switch, and pc, InstCount, Cycles and
// AnalysisCalls live in locals: Go's calling convention saves no
// registers, so one call on this path would spill all of them on every
// instruction. The locals are written back to the VM before anything
// that can observe it (closure hooks, syscalls, faults, the end of the
// block) and reloaded after closure hooks, which charge calls and
// cycles. A faulting instruction is not counted, and Fault.PC and v.PC
// both name it.
func (v *VM) runBlock(end uint64) error {
	code := v.Prog.Code
	// Hook attachment sets bits in this array in place, so the alias
	// stays valid even if a hook attaches more hooks mid-run. It is as
	// long as code (ensureHookState); saying so lets the pc check below
	// cover both.
	bits := v.hookBits[:len(code)]
	regs := &v.Regs
	pc, n, cycles, calls := v.PC, v.InstCount, v.Cycles, v.AnalysisCalls
	for n < end && !v.Halted {
		if uint(pc) >= uint(len(code)) {
			v.save(pc, n, cycles, calls)
			return fault(pc, "pc %d out of range", pc)
		}
		in := code[pc]

		b := bits[pc]
		if b&hookBeforeBit != 0 {
			v.save(pc, n, cycles, calls)
			ev := &v.scratch
			*ev = Event{VM: v, PC: pc, Inst: in}
			v.runHooks(v.before[pc], ev)
			n, cycles, calls = v.InstCount, v.Cycles, v.AnalysisCalls
		}

		// value is the result after-hooks see: the destination value,
		// or the stored value of a store. addr is a memory access's
		// effective address.
		var value int64
		var addr uint64
		next := pc + 1
		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			value = regs[in.Ra] + regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpSub:
			value = regs[in.Ra] - regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpMul:
			value = regs[in.Ra] * regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpDiv:
			if regs[in.Rb] == 0 {
				v.save(pc, n, cycles, calls)
				return fault(pc, "division by zero")
			}
			value = regs[in.Ra] / regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpRem:
			if regs[in.Rb] == 0 {
				v.save(pc, n, cycles, calls)
				return fault(pc, "remainder by zero")
			}
			value = regs[in.Ra] % regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpAddi:
			value = regs[in.Ra] + int64(in.Imm)
			v.setReg(in.Rd, value)
		case isa.OpMuli:
			value = regs[in.Ra] * int64(in.Imm)
			v.setReg(in.Rd, value)
		case isa.OpAnd:
			value = regs[in.Ra] & regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpOr:
			value = regs[in.Ra] | regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpXor:
			value = regs[in.Ra] ^ regs[in.Rb]
			v.setReg(in.Rd, value)
		case isa.OpAndi:
			value = regs[in.Ra] & int64(in.Imm)
			v.setReg(in.Rd, value)
		case isa.OpOri:
			value = regs[in.Ra] | int64(in.Imm)
			v.setReg(in.Rd, value)
		case isa.OpXori:
			value = regs[in.Ra] ^ int64(in.Imm)
			v.setReg(in.Rd, value)
		case isa.OpSll:
			value = regs[in.Ra] << (uint64(regs[in.Rb]) & 63)
			v.setReg(in.Rd, value)
		case isa.OpSrl:
			value = int64(uint64(regs[in.Ra]) >> (uint64(regs[in.Rb]) & 63))
			v.setReg(in.Rd, value)
		case isa.OpSra:
			value = regs[in.Ra] >> (uint64(regs[in.Rb]) & 63)
			v.setReg(in.Rd, value)
		case isa.OpSlli:
			value = regs[in.Ra] << (uint32(in.Imm) & 63)
			v.setReg(in.Rd, value)
		case isa.OpSrli:
			value = int64(uint64(regs[in.Ra]) >> (uint32(in.Imm) & 63))
			v.setReg(in.Rd, value)
		case isa.OpSrai:
			value = regs[in.Ra] >> (uint32(in.Imm) & 63)
			v.setReg(in.Rd, value)
		case isa.OpCmpeq:
			value = b2i(regs[in.Ra] == regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmpne:
			value = b2i(regs[in.Ra] != regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmplt:
			value = b2i(regs[in.Ra] < regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmple:
			value = b2i(regs[in.Ra] <= regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmpgt:
			value = b2i(regs[in.Ra] > regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmpge:
			value = b2i(regs[in.Ra] >= regs[in.Rb])
			v.setReg(in.Rd, value)
		case isa.OpCmplti:
			value = b2i(regs[in.Ra] < int64(in.Imm))
			v.setReg(in.Rd, value)
		case isa.OpCmpeqi:
			value = b2i(regs[in.Ra] == int64(in.Imm))
			v.setReg(in.Rd, value)
		case isa.OpLdq:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 8) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 8)
			}
			value = int64(binary.LittleEndian.Uint64(v.Mem[addr:]))
			v.setReg(in.Rd, value)
		case isa.OpLdl:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 4) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 4)
			}
			value = int64(int32(binary.LittleEndian.Uint32(v.Mem[addr:])))
			v.setReg(in.Rd, value)
		case isa.OpLdbu:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 1) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 1)
			}
			value = int64(v.Mem[addr])
			v.setReg(in.Rd, value)
		case isa.OpLdb:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 1) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 1)
			}
			value = int64(int8(v.Mem[addr]))
			v.setReg(in.Rd, value)
		case isa.OpStq:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 8) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 8)
			}
			value = regs[in.Rd]
			binary.LittleEndian.PutUint64(v.Mem[addr:], uint64(value))
			v.dirty[addr>>pageShift] = true
			v.dirty[(addr+7)>>pageShift] = true
		case isa.OpStl:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 4) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 4)
			}
			value = regs[in.Rd]
			binary.LittleEndian.PutUint32(v.Mem[addr:], uint32(value))
			v.dirty[addr>>pageShift] = true
			v.dirty[(addr+3)>>pageShift] = true
		case isa.OpStb:
			addr = uint64(regs[in.Ra] + int64(in.Imm))
			if !v.inMem(addr, 1) {
				v.save(pc, n, cycles, calls)
				return memFault(pc, addr, 1)
			}
			value = regs[in.Rd]
			v.Mem[addr] = byte(value)
			v.dirty[addr>>pageShift] = true
		case isa.OpBr:
			next = int(in.Imm)
		case isa.OpBeq:
			if regs[in.Ra] == 0 {
				next = int(in.Imm)
			}
		case isa.OpBne:
			if regs[in.Ra] != 0 {
				next = int(in.Imm)
			}
		case isa.OpJsr:
			value = int64(pc + 1) // link value, visible to after-hooks
			v.setReg(in.Rd, value)
			next = int(in.Imm)
		case isa.OpJsrr:
			next = int(regs[in.Ra]) // read before the link write in case Rd == Ra
			value = int64(pc + 1)
			v.setReg(in.Rd, value)
		case isa.OpJmp, isa.OpRet:
			next = int(regs[in.Ra])
		case isa.OpSyscall:
			v.save(pc, n, cycles, calls)
			val, err := v.syscall(in.Imm)
			if err != nil {
				return err
			}
			value = val
		default:
			v.save(pc, n, cycles, calls)
			return fault(pc, "unimplemented opcode %v", in.Op)
		}
		n++
		cycles += uint64(in.Op.Cycles())

		if b&hookBufBit != 0 {
			// The buffered sink replaces one closure-based after-hook:
			// same per-value analysis-call count and cycle charge,
			// delivered to the analysis out of line in batches.
			calls++
			if v.ChargeHooks {
				cycles += AnalysisCallCycles
			}
			v.bufs[pc].push(value)
		}
		if b&hookAfterBit != 0 {
			v.save(next, n, cycles, calls)
			ev := &v.scratch
			*ev = Event{VM: v, PC: pc, Inst: in, Value: value, Addr: addr}
			v.runHooks(v.after[pc], ev)
			next, n, cycles, calls = v.PC, v.InstCount, v.Cycles, v.AnalysisCalls
		}
		pc = next
	}
	v.save(pc, n, cycles, calls)
	return nil
}

// save writes a block's locals back to the VM.
func (v *VM) save(pc int, n, cycles, calls uint64) {
	v.PC, v.InstCount, v.Cycles, v.AnalysisCalls = pc, n, cycles, calls
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
// snapshot's size if it differs, and all of it counts as written for
// the next Reset.
func (v *VM) Restore(s *Snapshot) error {
	if len(s.Regs) != isa.NumRegs {
		return fmt.Errorf("vm: snapshot has %d registers, want %d", len(s.Regs), isa.NumRegs)
	}
	if len(s.Mem) < minValidAddr {
		return fmt.Errorf("vm: snapshot memory %d bytes is too small", len(s.Mem))
	}
	copy(v.Regs[:], s.Regs)
	if len(v.Mem) != len(s.Mem) {
		v.newMem(len(s.Mem))
	}
	copy(v.Mem, s.Mem)
	v.markDirty(0, uint64(len(v.Mem)))
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
