package vm_test

import (
	"context"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// nestedLoopSrc is a tight counting loop: an inner body of (add, addi, bne)
// nested in an outer loop ending in (addi, bne), so the loop latches
// dominate execution.
const nestedLoopSrc = `
main:   syscall getint
        add t5, v0, zero
        li a0, 0
outer:  li t0, 50
inner:  add a0, a0, t0
        addi t0, t0, -1
        bne t0, inner
        addi t5, t5, -1
        bne t5, outer
        syscall putint
        syscall exit
`

func assembleNestedLoop(t *testing.T) *program.Program {
	t.Helper()
	p, err := asm.Assemble(nestedLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepLimitExactMidPair: a step limit landing anywhere in the loop
// body, including between an op and the branch it feeds, must stop at
// exactly StepLimit instructions.
func TestStepLimitExactMidPair(t *testing.T) {
	prog := assembleNestedLoop(t)
	input := []int64{40}
	full, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}

	// Odd and even limits, including ones chosen to fall mid-latch in
	// the steady loop body: 102 stops two instructions into the inner
	// (add, addi, bne), 155 one into the outer loop's (addi, bne).
	for _, limit := range []uint64{1, 2, 7, 100, 101, 102, 155, 1001, full.InstCount - 1} {
		v := vm.New(prog)
		v.Input = input
		v.StepLimit = limit
		outcome, _ := v.RunControlled(context.Background())
		if outcome != vm.OutcomeLimit {
			t.Fatalf("limit %d: outcome %v", limit, outcome)
		}
		if v.InstCount != limit {
			t.Fatalf("limit %d: stopped at %d instructions", limit, v.InstCount)
		}

		// Resuming from the snapshot must converge on the uninterrupted
		// run even when the cut fell between an op and its branch.
		v2 := vm.New(prog)
		v2.Input = input
		if err := v2.Restore(v.Snapshot()); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		outcome, err := v2.RunControlled(context.Background())
		if outcome != vm.OutcomeCompleted {
			t.Fatalf("limit %d: resume %v (%v)", limit, outcome, err)
		}
		if got := vm.ResultOf(v2, outcome); *got != *full {
			t.Fatalf("limit %d: stitched run differs:\n got: %+v\nwant: %+v", limit, got, full)
		}
	}
}

// TestHookDisablesFusionAtSite: a hook at any pc must fire on every
// execution of that pc while leaving observables identical to the
// unhooked run.
func TestHookDisablesFusionAtSite(t *testing.T) {
	prog := assembleNestedLoop(t)
	input := []int64{5}
	base, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}

	for pc := range prog.Code {
		v := vm.New(prog)
		v.Input = input
		hits := uint64(0)
		v.HookAfter(pc, func(ev *vm.Event) {
			if ev.PC != pc {
				t.Errorf("pc %d: event at pc %d", pc, ev.PC)
			}
			hits++
		})
		outcome, err := v.RunControlled(context.Background())
		if outcome != vm.OutcomeCompleted {
			t.Fatalf("pc %d: %v (%v)", pc, outcome, err)
		}
		if hits != v.AnalysisCalls {
			t.Fatalf("pc %d: %d hits but %d analysis calls", pc, hits, v.AnalysisCalls)
		}
		got := vm.ResultOf(v, outcome)
		got.AnalysisCalls = 0 // the only sanctioned difference
		if *got != *base {
			t.Fatalf("pc %d: hooked run changed observables:\n got: %+v\nwant: %+v", pc, got, base)
		}
	}
}

// TestMidRunHookAttach attaches an after-hook to a loop-latch pc from
// inside another hook, partway through the run: the attach must take
// effect in place so the new hook sees every later execution.
func TestMidRunHookAttach(t *testing.T) {
	prog := assembleNestedLoop(t)
	// pc 5 is "addi t0, t0, -1", feeding the inner loop's bne;
	// pc 3 is "li t0, 50", executed once per outer iteration.
	input := []int64{4}

	v := vm.New(prog)
	v.Input = input
	outer, late := 0, uint64(0)
	v.HookAfter(3, func(ev *vm.Event) {
		outer++
		if outer == 3 {
			ev.VM.HookAfter(5, func(*vm.Event) { late++ })
		}
	})
	outcome, err := v.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		t.Fatalf("%v (%v)", outcome, err)
	}
	// Attached at the start of outer iteration 3 of 4: the inner pc
	// runs 50 times in each of the remaining two iterations.
	if late != 100 {
		t.Fatalf("late hook fired %d times, want 100", late)
	}
}

func TestValueBuffer(t *testing.T) {
	var got []int64
	flushes := 0
	b := vm.NewValueBuffer(func(vals []int64) {
		flushes++
		got = append(got, vals...)
	})

	v := vm.New(assembleNestedLoop(t))
	v.HookAfterBuffered(4, b)
	v.Input = []int64{3}
	// Drive pushes through the VM itself: pc 4 is the add in the inner
	// loop body, executed 150 times (3 outer iterations of 50).
	v.HookAfter(3, func(*vm.Event) {}) // keep neighbours honest: mixed hook kinds
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// 150 = 2*ValueBufCap + 22: two capacity flushes happened inline,
	// a partial tail remains.
	if b.Pending() != 150-2*vm.ValueBufCap {
		t.Fatalf("pending %d, want %d", b.Pending(), 150-2*vm.ValueBufCap)
	}
	if flushes != 2 {
		t.Fatalf("saw %d capacity flushes, want 2", flushes)
	}
	b.Flush()
	b.Flush() // idempotent
	if len(got) != 150 || flushes != 3 {
		t.Fatalf("flushed %d values in %d flushes, want 150 in 3", len(got), flushes)
	}
	// Values arrive in execution order: within each outer iteration the
	// add accumulates t0 = 50, 49, ..., 1 onto a running total.
	sum := int64(0)
	for i, val := range got {
		sum += 50 - int64(i%50)
		if val != sum {
			t.Fatalf("value[%d] = %d, want %d", i, val, sum)
		}
	}
}

// TestValueBufferFlushOnExactlyFull drives a hooked pc exactly
// ValueBufCap times: the capacity flush must fire inline on the last
// push, leaving nothing pending, and the run-end Flush must then be a
// no-op (an empty buffer never invokes the sink).
func TestValueBufferFlushOnExactlyFull(t *testing.T) {
	prog, err := asm.Assemble(`
main:   syscall getint
        add t5, v0, zero
loop:   addi t5, t5, -1
        bne t5, loop
        syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	flushes := 0
	b := vm.NewValueBuffer(func(vals []int64) {
		flushes++
		got = append(got, vals...)
	})
	v := vm.New(prog)
	v.HookAfterBuffered(2, b) // the addi, executed exactly input times
	v.Input = []int64{vm.ValueBufCap}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 || b.Pending() != 0 {
		t.Fatalf("after exactly-full run: %d flushes, %d pending, want 1 and 0", flushes, b.Pending())
	}
	b.Flush()
	b.Flush()
	if flushes != 1 {
		t.Fatalf("empty flush invoked the sink (%d flushes)", flushes)
	}
	if len(got) != vm.ValueBufCap {
		t.Fatalf("saw %d values, want %d", len(got), vm.ValueBufCap)
	}
	for i, val := range got {
		if want := int64(vm.ValueBufCap - 1 - i); val != want {
			t.Fatalf("value[%d] = %d, want %d", i, val, want)
		}
	}
}

// TestMidRunBufferedAttachOnFusedTriple attaches a buffered sink to
// the middle instruction of the steady inner-loop latch (add, addi,
// bne) from inside another hook, partway through the run. The attach
// must take effect in place, so the late sink sees every subsequent
// execution of its pc with the exact value stream.
func TestMidRunBufferedAttachOnFusedTriple(t *testing.T) {
	prog := assembleNestedLoop(t)
	input := []int64{4}

	var late []int64
	buf := vm.NewValueBuffer(func(vals []int64) { late = append(late, vals...) })
	v := vm.New(prog)
	v.Input = input
	outer := 0
	v.HookAfter(3, func(ev *vm.Event) {
		outer++
		if outer == 3 {
			// pc 5 is "addi t0, t0, -1", second op of the
			// (pc4, pc5, pc6) latch.
			ev.VM.HookAfterBuffered(5, buf)
		}
	})
	outcome, err := v.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		t.Fatalf("%v (%v)", outcome, err)
	}
	buf.Flush()
	// Attached at the start of outer iteration 3 of 4: the decrement
	// runs 50 times in each of the two remaining iterations, counting
	// t0 down 49..0.
	if len(late) != 100 {
		t.Fatalf("late sink saw %d values, want 100", len(late))
	}
	for i, val := range late {
		if want := int64(49 - i%50); val != want {
			t.Fatalf("value[%d] = %d, want %d", i, val, want)
		}
	}
}

// TestBufferedHookMatchesClosureHook: the buffered sink must observe
// the same value stream and charge the same accounting as an
// equivalent closure hook.
func TestBufferedHookMatchesClosureHook(t *testing.T) {
	prog := assembleNestedLoop(t)
	input := []int64{7}
	pc := 4 // inner-loop add

	closure := vm.New(prog)
	closure.Input = input
	closure.ChargeHooks = true
	var a []int64
	closure.HookAfter(pc, func(ev *vm.Event) { a = append(a, ev.Value) })
	if err := closure.Run(); err != nil {
		t.Fatal(err)
	}

	buffered := vm.New(prog)
	buffered.Input = input
	buffered.ChargeHooks = true
	var b []int64
	buf := vm.NewValueBuffer(func(vals []int64) { b = append(b, vals...) })
	buffered.HookAfterBuffered(pc, buf)
	if err := buffered.Run(); err != nil {
		t.Fatal(err)
	}
	buf.Flush()

	if !reflect.DeepEqual(a, b) {
		t.Fatalf("value streams differ: closure %d values, buffered %d", len(a), len(b))
	}
	ra := vm.ResultOf(closure, vm.OutcomeCompleted)
	rb := vm.ResultOf(buffered, vm.OutcomeCompleted)
	if *ra != *rb {
		t.Fatalf("accounting differs:\nclosure: %+v\nbuffered: %+v", ra, rb)
	}
}
