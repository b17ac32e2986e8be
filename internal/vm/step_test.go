package vm_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// stepLoopSrc counts down from its input (3 instructions per count,
// plus 3 of setup and exit), so a run of input n retires 3n+3
// instructions.
const stepLoopSrc = `
main:   syscall getint
        add t0, v0, zero
loop:   addi t0, t0, -1
        add t1, t1, t0
        bne t0, loop
        syscall exit
`

func assembleStepLoop(t *testing.T) *program.Program {
	t.Helper()
	p, err := asm.Assemble(stepLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// everyRoutine attaches a routine that asks to run every `every`
// instructions and records the InstCount of each call.
func everyRoutine(v *vm.VM, every uint64) *[]uint64 {
	calls := new([]uint64)
	v.HookStep(func(v *vm.VM) (uint64, error) {
		*calls = append(*calls, v.InstCount)
		return v.InstCount + every, nil
	})
	return calls
}

// TestStepRoutineRunsOnlyWhenDue: a routine asking for every E-th
// instruction runs ⌊(N−1)/E⌋ + 1 times over N instructions, at
// instructions 1, 1+E, 1+2E, … — never before the count it asked for.
// E = N−1 puts the last call on the exiting instruction.
func TestStepRoutineRunsOnlyWhenDue(t *testing.T) {
	prog := assembleStepLoop(t)
	input := []int64{1000}
	ref, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.InstCount
	for _, every := range []uint64{1, 2, 7, 64, 1000, n - 1, n, n + 5} {
		v := vm.New(prog)
		v.Input = input
		calls := everyRoutine(v, every)
		if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
			t.Fatalf("every %d: %v (%v)", every, outcome, err)
		}
		want := make([]uint64, 0, (n-1)/every+1)
		for at := uint64(1); at <= n; at += every {
			want = append(want, at)
		}
		if !reflect.DeepEqual(*calls, want) {
			t.Fatalf("every %d over %d insts: %d calls %v, want %d calls %v",
				every, n, len(*calls), head(*calls), len(want), head(want))
		}
		if got := vm.ResultOf(v, vm.OutcomeCompleted); *got != *ref {
			t.Fatalf("every %d: run differs from the unobserved one:\n got %+v\nwant %+v", every, got, ref)
		}
	}
}

func head(s []uint64) string {
	if len(s) > 6 {
		return fmt.Sprintf("%v…", s[:6])
	}
	return fmt.Sprint(s)
}

// TestStepRoutineReturnValues: a count at or below the current one
// means "after the next instruction", and math.MaxUint64 means never.
func TestStepRoutineReturnValues(t *testing.T) {
	prog := assembleStepLoop(t)
	input := []int64{50}
	ref, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		next  func(v *vm.VM) uint64
		calls uint64
	}{
		{"zero", func(*vm.VM) uint64 { return 0 }, ref.InstCount},
		{"current", func(v *vm.VM) uint64 { return v.InstCount }, ref.InstCount},
		{"past", func(v *vm.VM) uint64 { return v.InstCount - 1 }, ref.InstCount},
		{"never", func(*vm.VM) uint64 { return math.MaxUint64 }, 1},
	} {
		v := vm.New(prog)
		v.Input = input
		var calls uint64
		v.HookStep(func(v *vm.VM) (uint64, error) {
			calls++
			if v.InstCount != calls {
				t.Fatalf("%s: call %d at instruction %d", c.name, calls, v.InstCount)
			}
			return c.next(v), nil
		})
		if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
			t.Fatalf("%s: %v (%v)", c.name, outcome, err)
		}
		if calls != c.calls {
			t.Errorf("%s: %d calls over %d instructions, want %d", c.name, calls, ref.InstCount, c.calls)
		}
	}
}

// TestStepRoutinesSameCountOrder: routines due at one count run in
// attach order, after that instruction's hooks.
func TestStepRoutinesSameCountOrder(t *testing.T) {
	prog := assembleStepLoop(t)
	v := vm.New(prog)
	v.Input = []int64{5}
	var log []string
	for pc := range prog.Code {
		v.HookAfter(pc, func(ev *vm.Event) {
			log = append(log, fmt.Sprintf("hook@%d", ev.VM.InstCount))
		})
	}
	for _, name := range []string{"a", "b"} {
		v.HookStep(func(v *vm.VM) (uint64, error) {
			log = append(log, fmt.Sprintf("%s@%d", name, v.InstCount))
			return 10, nil
		})
	}
	if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
		t.Fatalf("%v (%v)", outcome, err)
	}
	want := []string{"hook@1", "a@1", "b@1"}
	for i := 2; i < 10; i++ {
		want = append(want, fmt.Sprintf("hook@%d", i))
	}
	want = append(want, "hook@10", "a@10", "b@10", "hook@11", "a@11", "b@11")
	if !reflect.DeepEqual(log[:len(want)], want) {
		t.Fatalf("call order %v, want %v", log[:len(want)], want)
	}
}

// TestStepRoutineStopsAndExit: a fault or the step limit arriving
// before a routine's due point ends the run without calling it, a
// routine due at the limit runs before the limit stops the run, and a
// routine due at the exiting instruction runs once, after it.
func TestStepRoutineStopsAndExit(t *testing.T) {
	faulting, err := asm.Assemble(`
main:   li t0, 20
loop:   addi t0, t0, -1
        bne t0, loop
        ldq t1, 0(zero)
        syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	prog := assembleStepLoop(t)
	input := []int64{50}
	ref, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		prog    *program.Program
		limit   uint64
		due     uint64
		outcome vm.RunOutcome
		calls   []uint64
	}{
		// The ldq at instruction 42 faults; 41 retire.
		{"fault-before-due", faulting, 0, 42, vm.OutcomeFaulted, []uint64{1}},
		{"due-before-fault", faulting, 0, 41, vm.OutcomeFaulted, []uint64{1, 41}},
		{"limit-before-due", prog, 30, 31, vm.OutcomeLimit, []uint64{1}},
		{"due-at-limit", prog, 30, 30, vm.OutcomeLimit, []uint64{1, 30}},
		{"due-at-exit", prog, 0, ref.InstCount, vm.OutcomeCompleted, []uint64{1, ref.InstCount}},
		{"due-past-exit", prog, 0, ref.InstCount + 1, vm.OutcomeCompleted, []uint64{1}},
	}
	for _, c := range cases {
		v := vm.New(c.prog)
		v.Input = input
		if c.limit != 0 {
			v.StepLimit = c.limit
		}
		var calls []uint64
		v.HookStep(func(v *vm.VM) (uint64, error) {
			calls = append(calls, v.InstCount)
			return c.due, nil
		})
		outcome, _ := v.RunControlled(context.Background())
		if outcome != c.outcome || !reflect.DeepEqual(calls, c.calls) {
			t.Errorf("%s: %v with calls at %v, want %v with calls at %v", c.name, outcome, calls, c.outcome, c.calls)
		}
	}
}

// TestStepRoutineAfterRestore: a routine attached before Restore first
// runs at the restored count + 1, which resuming from a checkpoint
// relies on to arm its schedule from the resume point.
func TestStepRoutineAfterRestore(t *testing.T) {
	prog := assembleStepLoop(t)
	input := []int64{200}
	first := vm.New(prog)
	first.Input = input
	first.StepLimit = 333
	if outcome, _ := first.RunControlled(context.Background()); outcome != vm.OutcomeLimit {
		t.Fatalf("first leg: %v", outcome)
	}

	v := vm.New(prog)
	v.Input = input
	calls := everyRoutine(v, 100)
	if err := v.Restore(first.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
		t.Fatalf("resumed leg: %v (%v)", outcome, err)
	}
	if got := (*calls)[:3]; !reflect.DeepEqual(got, []uint64{334, 434, 534}) {
		t.Fatalf("resumed routine ran at %v, want 334, 434, 534", got)
	}
}

// TestStepScheduleClearedOnReuse: ClearHooks, and so ResetFor, drops
// routines together with their schedules, so a reused VM carries
// neither: the old routine never runs again, and a new one arms from
// the reused run's first instruction.
func TestStepScheduleClearedOnReuse(t *testing.T) {
	prog := assembleStepLoop(t)
	v := vm.New(prog)
	v.Input = []int64{200}
	v.StepLimit = 100
	old := everyRoutine(v, 500)
	if outcome, _ := v.RunControlled(context.Background()); outcome != vm.OutcomeLimit {
		t.Fatalf("first run: %v", outcome)
	}

	v.ResetFor(prog, vm.DefaultMemSize)
	v.Input = []int64{200}
	fresh := everyRoutine(v, 50)
	if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
		t.Fatalf("reused run: %v (%v)", outcome, err)
	}
	if !reflect.DeepEqual(*old, []uint64{1}) {
		t.Errorf("old routine ran at %v after ResetFor, want only its first-run call at 1", *old)
	}
	if got := (*fresh)[:3]; !reflect.DeepEqual(got, []uint64{1, 51, 101}) {
		t.Errorf("new routine ran at %v, want 1, 51, 101", got)
	}
}
