// Package atom is an ATOM-like instrumentation toolkit (Srivastava &
// Eustace [35]), the interface the paper used to build its value
// profiler. A Tool walks the elements of a program — procedures, basic
// blocks, instructions — and attaches analysis routines that the VM
// invokes during execution with the run-time values the paper profiled
// (destination register values, load values, store values, parameter
// registers at procedure entry).
package atom

import (
	"context"
	"time"

	"valueprof/internal/isa"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// Tool instruments a program by attaching analysis routines through the
// Instrumenter.
type Tool interface {
	Instrument(ix *Instrumenter)
}

// ToolFunc adapts a function to the Tool interface.
type ToolFunc func(ix *Instrumenter)

func (f ToolFunc) Instrument(ix *Instrumenter) { f(ix) }

// Instrumenter exposes the program's structure and the attachment
// points. It wraps one VM instance, so the same program can be
// instrumented differently across runs.
type Instrumenter struct {
	Prog *program.Program
	VM   *vm.VM
}

// Procedures returns the program's procedure table.
func (ix *Instrumenter) Procedures() []program.Proc { return ix.Prog.Procs }

// BasicBlocks returns the basic-block decomposition.
func (ix *Instrumenter) BasicBlocks() *program.BlockSet { return ix.Prog.BasicBlocks() }

// Inst returns the instruction at pc.
func (ix *Instrumenter) Inst(pc int) isa.Inst { return ix.Prog.Code[pc] }

// NumInsts returns the code segment length.
func (ix *Instrumenter) NumInsts() int { return len(ix.Prog.Code) }

// AddBefore attaches an analysis routine before instruction pc.
func (ix *Instrumenter) AddBefore(pc int, fn vm.Hook) { ix.VM.HookBefore(pc, fn) }

// AddAfter attaches an analysis routine after instruction pc; the event
// carries the instruction's result value (destination register or
// stored value) and effective address for memory operations.
func (ix *Instrumenter) AddAfter(pc int, fn vm.Hook) { ix.VM.HookAfter(pc, fn) }

// AddAfterBuffered attaches a batched value sink after instruction pc:
// the VM pushes the instruction's result value into b and the analysis
// receives it later, in execution order, when the buffer flushes. This
// is the cheap form of AddAfter for tools that only need the value
// stream; tools that must act at the exact instruction (samplers,
// checkpointers) still use AddAfter. The caller owns flushing at run
// end (see vm.ValueBuffer).
func (ix *Instrumenter) AddAfterBuffered(pc int, b *vm.ValueBuffer) {
	ix.VM.HookAfterBuffered(pc, b)
}

// AddProcEntry attaches an analysis routine at procedure entry; the
// argument registers a0..a5 are live in the event's VM at call time.
func (ix *Instrumenter) AddProcEntry(p program.Proc, fn vm.Hook) {
	ix.VM.HookBefore(p.Start, fn)
}

// AddProgramEnd attaches an analysis routine that runs when the program
// exits (ATOM's AddCallProgram(ProgramEnd, ...)). End routines also run
// when a controlled run stops early, so tools can finalize partial
// state.
func (ix *Instrumenter) AddProgramEnd(fn vm.Hook) { ix.VM.HookEnd(fn) }

// AddStep attaches a scheduled control routine: it runs after an
// instruction and returns the instruction count after which it next
// wants to run; returning an error stops the run (see vm.StepFn).
// Checkpointing, progress reporting and fault injection attach here.
func (ix *Instrumenter) AddStep(fn vm.StepFn) { ix.VM.HookStep(fn) }

// ForEachInst invokes visit for every instruction whose opcode
// satisfies keep (nil keeps all). This is the idiom the paper's
// profiler used to select the instruction classes to value-profile.
func (ix *Instrumenter) ForEachInst(keep func(isa.Inst) bool, visit func(pc int, in isa.Inst)) {
	for pc, in := range ix.Prog.Code {
		if keep == nil || keep(in) {
			visit(pc, in)
		}
	}
}

// RunOptions configures a controlled, fault-tolerant run.
type RunOptions struct {
	Input []int64
	// ChargeHooks selects whether analysis calls cost simulated cycles
	// (used by the overhead experiments).
	ChargeHooks bool
	// StepLimit bounds executed instructions; 0 keeps the VM default.
	StepLimit uint64
	// MemSize is the guest memory budget in bytes; 0 keeps the VM
	// default.
	MemSize int
	// Deadline, when non-zero, stops the run with vm.OutcomeDeadline
	// once the wall clock passes it.
	Deadline time.Time
	// Quantum is the instruction interval between cancellation and
	// deadline checks; 0 selects vm.DefaultQuantum.
	Quantum uint64
}

// EffectiveMemSize resolves the guest memory budget, substituting the
// VM default for the zero value. Arena callers size reused VMs with it
// so ResetFor and Prepare agree on the memory image.
func (o RunOptions) EffectiveMemSize() int {
	if o.MemSize <= 0 {
		return vm.DefaultMemSize
	}
	return o.MemSize
}

// Prepare builds an instrumented VM without running it: it creates the
// VM per opts, attaches every tool, and returns the VM ready for
// RunControlled. Callers that need to restore a checkpointed snapshot
// do so between Prepare and running.
func Prepare(prog *program.Program, opts RunOptions, tools ...Tool) *vm.VM {
	return PrepareOn(vm.NewSized(prog, opts.EffectiveMemSize()), opts, tools...)
}

// PrepareOn instruments an existing VM instead of allocating one: the
// reuse counterpart of Prepare for pooled execution. The caller must
// already have put v into its initial state for the right program —
// either freshly created, or rewound with v.ResetFor(prog,
// opts.EffectiveMemSize()) — and PrepareOn then applies the run
// options and attaches every tool exactly as Prepare would.
func PrepareOn(v *vm.VM, opts RunOptions, tools ...Tool) *vm.VM {
	v.Input = opts.Input
	v.ChargeHooks = opts.ChargeHooks
	if opts.StepLimit > 0 {
		v.StepLimit = opts.StepLimit
	}
	v.Deadline = opts.Deadline
	v.Quantum = opts.Quantum
	ix := &Instrumenter{Prog: v.Prog, VM: v}
	for _, t := range tools {
		t.Instrument(ix)
	}
	return v
}

// RunControlled instruments prog with the given tools and executes it
// under ctx and opts. Unlike Run it never discards the run: the
// returned Result summarizes whatever prefix executed, the outcome
// classifies how the run ended, and every tool's accumulated state
// remains valid for salvage. err is nil iff outcome is
// vm.OutcomeCompleted.
func RunControlled(ctx context.Context, prog *program.Program, opts RunOptions, tools ...Tool) (*vm.Result, vm.RunOutcome, error) {
	v := Prepare(prog, opts, tools...)
	outcome, err := v.RunControlled(ctx)
	return vm.ResultOf(v, outcome), outcome, err
}

// Run instruments prog with the given tools and executes it on input.
// chargeHooks selects whether analysis calls cost simulated cycles
// (used by the overhead experiments). On error the returned Result
// still summarizes the partial run.
func Run(prog *program.Program, input []int64, chargeHooks bool, tools ...Tool) (*vm.Result, error) {
	res, _, err := RunControlled(context.Background(), prog,
		RunOptions{Input: input, ChargeHooks: chargeHooks}, tools...)
	return res, err
}
