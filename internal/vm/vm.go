// Package vm interprets VRISC programs. It is the execution substrate
// standing in for the paper's Alpha hardware: it runs the workload,
// charges cycles under a simple timing model, and exposes the
// instrumentation hook points (before/after each chosen instruction,
// plus program end) that the ATOM-like layer in internal/atom uses.
//
// The interpreter executes every opcode inline in one switch, keeping
// the pc and the counters in locals between the points where hooks,
// syscalls or faults can observe the VM, and hands profiled values to
// the analysis through per-site buffers (see docs/perf.md).
package vm

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"valueprof/internal/isa"
	"valueprof/internal/program"
)

// Defaults and caps for memory and runaway protection.
const (
	DefaultMemSize   = 8 << 20 // 8 MiB flat address space
	DefaultStepLimit = 1 << 31 // instructions
	// MaxMemSize caps guest memory (see CheckFit): a VM allocates and
	// zeroes all of it up front, and a checkpoint copies it.
	MaxMemSize = 256 << 20
	// MaxOutput caps the guest's output in bytes. The syscall that
	// would take Output past it faults instead of writing.
	MaxOutput = 1 << 20
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
}

// Bits in hookBits.
const (
	hookBeforeBit uint8 = 1 << iota
	hookAfterBit
	hookBufBit
)

// CheckFit reports whether prog can run in memSize bytes of guest
// memory: memSize must not exceed MaxMemSize, and the data segment
// must lie inside the memory. New, NewSized and ResetFor panic on a
// data segment that does not fit, so callers facing untrusted programs
// or sizes check first.
func CheckFit(prog *program.Program, memSize int) error {
	if memSize < 0 || memSize > MaxMemSize {
		return fmt.Errorf("vm: memory size %d outside [0, %d]", memSize, MaxMemSize)
	}
	if mem := uint64(memSize); prog.DataAddr > mem || mem-prog.DataAddr < uint64(len(prog.Data)) {
		return fmt.Errorf("vm: %d-byte data segment at %#x does not fit in %d bytes of memory",
			len(prog.Data), prog.DataAddr, memSize)
	}
	return nil
}

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
// would, while reusing the memory image and the hook-bit and
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

func fault(pc int, format string, args ...any) error {
	return &Fault{PC: pc, Msg: fmt.Sprintf(format, args...)}
}

func (v *VM) setReg(r uint8, val int64) {
	if r != isa.RegZero {
		v.Regs[r] = val
	}
}

// inMem reports whether the size bytes at addr are valid guest memory.
// It never forms addr+size: that sum wraps for addresses within size
// bytes of 2^64 and would pass the bound check.
func (v *VM) inMem(addr uint64, size uint64) bool {
	mem := uint64(len(v.Mem))
	return addr >= minValidAddr && addr <= mem && mem-addr >= size
}

func memFault(pc int, addr uint64, size uint64) error {
	return fault(pc, "memory access at %#x size %d out of range", addr, size)
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

func (v *VM) syscall(code int32) (int64, error) {
	switch code {
	case isa.SysExit:
		v.Halted = true
		v.ExitStatus = v.Regs[isa.RegA0]
		return v.ExitStatus, nil
	case isa.SysPutInt:
		var digits [20]byte
		return v.Regs[isa.RegA0], v.emit(strconv.AppendInt(digits[:0], v.Regs[isa.RegA0], 10))
	case isa.SysPutChar:
		return v.Regs[isa.RegA0], v.emit([]byte{byte(v.Regs[isa.RegA0])})
	case isa.SysGetInt:
		var val int64
		if v.inputPos < len(v.Input) {
			val = v.Input[v.inputPos]
			v.inputPos++
		}
		v.setReg(isa.RegV0, val)
		return val, nil
	case isa.SysPutStr:
		for addr := uint64(v.Regs[isa.RegA0]); ; addr++ {
			if !v.inMem(addr, 1) {
				return 0, memFault(v.PC, addr, 1)
			}
			if v.Mem[addr] == 0 {
				return 0, nil
			}
			if err := v.emit(v.Mem[addr : addr+1]); err != nil {
				return 0, err
			}
		}
	case isa.SysClock:
		v.setReg(isa.RegV0, int64(v.Cycles))
		return int64(v.Cycles), nil
	}
	return 0, fault(v.PC, "unknown syscall %d", code)
}

// emit appends p to the guest output, or faults without writing it if
// that would take the output past MaxOutput.
func (v *VM) emit(p []byte) error {
	if v.Output.Len()+len(p) > MaxOutput {
		return fault(v.PC, "output limit of %d bytes exceeded", MaxOutput)
	}
	v.Output.Write(p)
	return nil
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
