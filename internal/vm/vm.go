// Package vm interprets VRISC programs. It is the execution substrate
// standing in for the paper's Alpha hardware: it runs the workload,
// charges cycles under a simple timing model, and exposes the
// instrumentation hook points (before/after each chosen instruction,
// plus program end) that the ATOM-like layer in internal/atom uses.
package vm

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"valueprof/internal/isa"
	"valueprof/internal/program"
)

// Defaults for memory and runaway protection.
const (
	DefaultMemSize   = 8 << 20 // 8 MiB flat address space
	DefaultStepLimit = 1 << 31 // instructions
	// minValidAddr makes low addresses fault, catching null-pointer
	// style bugs in generated code. The data segment starts above it.
	minValidAddr = 0x100
	// AnalysisCallCycles is the cycle charge per analysis-routine
	// invocation, modelling the paper's instrumentation overhead (an
	// ATOM analysis call costs a procedure call plus work).
	AnalysisCallCycles = 12
)

// Fault is a runtime error carrying the faulting pc.
type Fault struct {
	PC  int
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("vm: fault at pc %d: %s", f.PC, f.Msg) }

// Event is passed to instrumentation hooks. For after-hooks on
// result-producing instructions Value holds the destination value; for
// stores it holds the stored value. Addr is the effective address of a
// load or store, 0 otherwise.
type Event struct {
	VM    *VM
	PC    int
	Inst  isa.Inst
	Value int64
	Addr  uint64
}

// Hook is an instrumentation callback.
type Hook func(*Event)

// VM executes one program. Zero value is not usable; call New.
type VM struct {
	Prog *program.Program
	Regs [isa.NumRegs]int64
	Mem  []byte
	PC   int

	Cycles        uint64
	InstCount     uint64
	AnalysisCalls uint64 // number of analysis-hook invocations (overhead metric)
	ChargeHooks   bool   // if set, each hook invocation costs AnalysisCallCycles

	Output     bytes.Buffer
	Input      []int64 // consumed by SysGetInt
	inputPos   int
	ExitStatus int64
	Halted     bool

	StepLimit uint64
	// Deadline, when non-zero, is the wall-clock instant after which
	// RunControlled stops with OutcomeDeadline. Checked once per
	// Quantum instructions.
	Deadline time.Time
	// Quantum is the number of instructions between control checks in
	// RunControlled; 0 selects DefaultQuantum.
	Quantum uint64

	// Hook tables, indexed by pc; nil when no instrumentation is
	// attached so the uninstrumented fast path stays cheap.
	before  [][]Hook
	after   [][]Hook
	atEnd   []Hook
	steps   []stepRoutine
	scratch Event

	// hookBits is the dense per-pc hook summary the run loop consults:
	// one byte per instruction, zero meaning "no instrumentation here",
	// so a hooked-but-not-interesting pc costs one load and one
	// predictable branch instead of two slice-header probes.
	hookBits []uint8
	// bufs holds the per-pc buffered after-sinks (HookAfterBuffered).
	bufs []*ValueBuffer
	// fused caches, per pc, whether this instruction and its successor
	// execute as one fused (op, branch) pair; rebuilt lazily when
	// fuseDirty is set. See refreshFusion.
	fused     []uint8
	fuseDirty bool
}

// Bits in hookBits.
const (
	hookBeforeBit uint8 = 1 << iota
	hookAfterBit
	hookBufBit
)

// New creates a VM for prog with default memory and step limit, loading
// the data segment and initializing sp/fp to the top of memory.
func New(prog *program.Program) *VM {
	return NewSized(prog, DefaultMemSize)
}

// NewSized creates a VM with the given memory size in bytes.
func NewSized(prog *program.Program, memSize int) *VM {
	v := &VM{Prog: prog, Mem: make([]byte, memSize), StepLimit: DefaultStepLimit}
	v.ensureHookState()
	v.Reset()
	return v
}

// ensureHookState makes the dense per-pc hook summary match the
// program length (it is indexed unconditionally on the hot path).
func (v *VM) ensureHookState() {
	if len(v.hookBits) != len(v.Prog.Code) {
		v.hookBits = growClear(v.hookBits, len(v.Prog.Code))
	}
}

// unfuse invalidates any fused region that includes pc, so a hook
// attached mid-run takes effect immediately, and schedules a full
// fusion recompute for the next run (newly hookless pcs re-fuse then).
// Three-op superinstructions start up to two pcs back, so both
// predecessors are cleared.
func (v *VM) unfuse(pc int) {
	v.fuseDirty = true
	if pc >= len(v.fused) {
		// Stale table from a previous (shorter) program on a reused VM;
		// fuseDirty already forces a full rebuild before the next run.
		return
	}
	v.fused[pc] = fuseNone
	if pc > 0 {
		v.fused[pc-1] = fuseNone
	}
	if pc > 1 {
		v.fused[pc-2] = fuseNone
	}
}

// Reset rewinds the VM to the program's initial state, preserving
// attached hooks and the Input queue.
func (v *VM) Reset() {
	for i := range v.Regs {
		v.Regs[i] = 0
	}
	for i := range v.Mem {
		v.Mem[i] = 0
	}
	copy(v.Mem[v.Prog.DataAddr:], v.Prog.Data)
	top := int64(len(v.Mem) - 64)
	v.Regs[isa.RegSP] = top
	v.Regs[isa.RegFP] = top
	v.PC = v.Prog.Entry
	v.Cycles = 0
	v.InstCount = 0
	v.AnalysisCalls = 0
	v.Output.Reset()
	v.inputPos = 0
	v.ExitStatus = 0
	v.Halted = false
}

// ResetFor rewinds a VM for reuse on a (possibly different) program,
// leaving it in the same observable state NewSized(prog, memSize)
// would, while reusing the memory image and the hook-bit, fusion, and
// buffer-table allocations. Unlike Reset, all instrumentation is
// removed and the run-control knobs (StepLimit, Deadline, Quantum,
// ChargeHooks, Input) return to their defaults; callers re-instrument
// and reconfigure afterwards exactly as they would a fresh VM. This is
// the reuse entry point for pooled execution (internal/parallel's
// arena and internal/supervise retries); fresh-vs-reused byte identity
// of profiles is pinned by internal/difftest.
func (v *VM) ResetFor(prog *program.Program, memSize int) {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	v.Prog = prog
	if cap(v.Mem) >= memSize {
		v.Mem = v.Mem[:memSize]
	} else {
		v.Mem = make([]byte, memSize)
	}
	v.StepLimit = DefaultStepLimit
	v.Deadline = time.Time{}
	v.Quantum = 0
	v.ChargeHooks = false
	v.Input = nil
	v.ClearHooks()
	v.ensureHookState()
	v.Reset()
}

// HookBefore attaches fn to run before each execution of instruction pc.
func (v *VM) HookBefore(pc int, fn Hook) {
	v.ensureHookState()
	if len(v.before) != len(v.Prog.Code) {
		v.before = growClearHooks(v.before, len(v.Prog.Code))
	}
	v.before[pc] = append(v.before[pc], fn)
	v.hookBits[pc] |= hookBeforeBit
	v.unfuse(pc)
}

// HookAfter attaches fn to run after each execution of instruction pc,
// with the result value (destination register or stored value) in the
// event.
func (v *VM) HookAfter(pc int, fn Hook) {
	v.ensureHookState()
	if len(v.after) != len(v.Prog.Code) {
		v.after = growClearHooks(v.after, len(v.Prog.Code))
	}
	v.after[pc] = append(v.after[pc], fn)
	v.hookBits[pc] |= hookAfterBit
	v.unfuse(pc)
}

// HookEnd attaches fn to run when the program exits.
func (v *VM) HookEnd(fn Hook) { v.atEnd = append(v.atEnd, fn) }

// ClearHooks removes all instrumentation. The per-pc tables keep their
// backing arrays (entries nil-filled) so a reused VM does not
// reallocate them every job.
func (v *VM) ClearHooks() {
	for i := range v.before {
		v.before[i] = nil
	}
	for i := range v.after {
		v.after[i] = nil
	}
	v.atEnd = nil
	v.steps = nil
	for i := range v.bufs {
		v.bufs[i] = nil
	}
	for i := range v.hookBits {
		v.hookBits[i] = 0
	}
	for i := range v.fused {
		v.fused[i] = fuseNone
	}
	v.fuseDirty = true
}

// growClearHooks is growClear for per-pc hook tables.
func growClearHooks(s [][]Hook, n int) [][]Hook {
	if cap(s) < n {
		return make([][]Hook, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func (v *VM) fault(format string, args ...any) error {
	return &Fault{PC: v.PC, Msg: fmt.Sprintf(format, args...)}
}

func (v *VM) setReg(r uint8, val int64) {
	if r != isa.RegZero {
		v.Regs[r] = val
	}
}

func (v *VM) checkAddr(addr uint64, size int) error {
	if addr < minValidAddr || addr+uint64(size) > uint64(len(v.Mem)) {
		return v.fault("memory access at %#x size %d out of range", addr, size)
	}
	return nil
}

func (v *VM) load(addr uint64, size int) (int64, error) {
	if err := v.checkAddr(addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return int64(v.Mem[addr]), nil
	case 4:
		return int64(binary.LittleEndian.Uint32(v.Mem[addr:])), nil
	case 8:
		return int64(binary.LittleEndian.Uint64(v.Mem[addr:])), nil
	}
	panic("vm: bad load size")
}

func (v *VM) store(addr uint64, size int, val int64) error {
	if err := v.checkAddr(addr, size); err != nil {
		return err
	}
	switch size {
	case 1:
		v.Mem[addr] = byte(val)
	case 4:
		binary.LittleEndian.PutUint32(v.Mem[addr:], uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(v.Mem[addr:], uint64(val))
	default:
		panic("vm: bad store size")
	}
	return nil
}

func (v *VM) runHooks(hooks []Hook, ev *Event) {
	for _, h := range hooks {
		h(ev)
		v.AnalysisCalls++
		if v.ChargeHooks {
			v.Cycles += AnalysisCallCycles
		}
	}
}

// Run executes until the program exits, faults, or hits the step
// limit, returning a non-nil error for anything but a clean exit. It is
// RunControlled without cancellation; callers that want to salvage
// partial runs should use RunControlled instead.
func (v *VM) Run() error {
	_, err := v.RunControlled(context.Background())
	return err
}

// step executes one instruction, returning the result value (for
// after-hooks) and effective address for memory operations. v.PC is
// advanced (or redirected) and v.Halted set on exit. The semantics
// live in the per-opcode handler table (dispatch.go); the run loop
// dispatches through the table directly and this wrapper exists for
// tests and single-step callers.
func (v *VM) step(pc int, in isa.Inst) (value int64, addr uint64, err error) {
	return handlers[in.Op](v, pc, in)
}

func (v *VM) syscall(code int32) (int64, error) {
	switch code {
	case isa.SysExit:
		v.Halted = true
		v.ExitStatus = v.Regs[isa.RegA0]
		return v.ExitStatus, nil
	case isa.SysPutInt:
		v.Output.WriteString(strconv.FormatInt(v.Regs[isa.RegA0], 10))
		return v.Regs[isa.RegA0], nil
	case isa.SysPutChar:
		v.Output.WriteByte(byte(v.Regs[isa.RegA0]))
		return v.Regs[isa.RegA0], nil
	case isa.SysGetInt:
		var val int64
		if v.inputPos < len(v.Input) {
			val = v.Input[v.inputPos]
			v.inputPos++
		}
		v.setReg(isa.RegV0, val)
		return val, nil
	case isa.SysPutStr:
		addr := uint64(v.Regs[isa.RegA0])
		for {
			b, err := v.load(addr, 1)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				break
			}
			v.Output.WriteByte(byte(b))
			addr++
		}
		return 0, nil
	case isa.SysClock:
		v.setReg(isa.RegV0, int64(v.Cycles))
		return int64(v.Cycles), nil
	}
	return 0, v.fault("unknown syscall %d", code)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Result summarizes a run. Outcome distinguishes a completed run from
// one stopped early; for partial outcomes the counters cover the
// executed prefix.
type Result struct {
	Output        string
	ExitStatus    int64
	Cycles        uint64
	InstCount     uint64
	AnalysisCalls uint64
	Outcome       RunOutcome
}

// ResultOf summarizes the VM's current state as a Result tagged with
// the given outcome.
func ResultOf(v *VM, outcome RunOutcome) *Result {
	return &Result{
		Output:        v.Output.String(),
		ExitStatus:    v.ExitStatus,
		Cycles:        v.Cycles,
		InstCount:     v.InstCount,
		AnalysisCalls: v.AnalysisCalls,
		Outcome:       outcome,
	}
}

// Execute runs prog to completion with the given input and returns the
// run summary; a convenience wrapper used by workloads and experiments.
func Execute(prog *program.Program, input []int64) (*Result, error) {
	v := New(prog)
	v.Input = input
	if err := v.Run(); err != nil {
		return nil, err
	}
	return ResultOf(v, OutcomeCompleted), nil
}
