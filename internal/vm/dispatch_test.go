package vm_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// fuseSrc is a tight counting loop whose body ends in fusible
// (addi, bne) pairs, so the fused dispatch path dominates execution.
const fuseSrc = `
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

func assembleFuse(t *testing.T) *program.Program {
	t.Helper()
	p, err := asm.Assemble(fuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFusedLoopMatchesUnfused pins the tentpole invariant: the fused
// pair fast path must be observably identical — output, instruction
// count, cycle count — to the same program forced down the one-at-a-
// time path. A HookStep disables fusion entirely, and charges nothing,
// so the two runs are directly comparable.
func TestFusedLoopMatchesUnfused(t *testing.T) {
	prog := assembleFuse(t)
	input := []int64{40}

	fused := vm.New(prog)
	fused.Input = input
	outcome, err := fused.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		t.Fatalf("fused run: %v (%v)", outcome, err)
	}

	plain := vm.New(prog)
	plain.Input = input
	steps := uint64(0)
	plain.HookStep(func(v *vm.VM) (uint64, error) { steps++; return v.InstCount + 1, nil })
	outcome, err = plain.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		t.Fatalf("unfused run: %v (%v)", outcome, err)
	}

	got, want := vm.ResultOf(fused, vm.OutcomeCompleted), vm.ResultOf(plain, vm.OutcomeCompleted)
	if *got != *want {
		t.Fatalf("fused run differs from unfused:\n fused: %+v\nplain: %+v", got, want)
	}
	if steps != plain.InstCount {
		t.Fatalf("step hook fired %d times over %d instructions", steps, plain.InstCount)
	}
	if !reflect.DeepEqual(fused.Regs, plain.Regs) {
		t.Fatal("register files diverged")
	}
}

// TestStepLimitExactMidPair: a step limit landing between the two
// halves of a fusible pair must still stop at exactly StepLimit
// instructions — the fast path may only fire when both fit.
func TestStepLimitExactMidPair(t *testing.T) {
	prog := assembleFuse(t)
	input := []int64{40}
	full, err := vm.Execute(prog, input)
	if err != nil {
		t.Fatal(err)
	}

	// Odd and even limits, including ones chosen to fall mid-pair in
	// the steady loop body: 102 leaves two instructions for a fusible
	// triple, 155 one for the outer loop's fusible pair.
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
		// run even when the cut fell inside what fusion would pair up.
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

// TestHookDisablesFusionAtSite: hooking a pc inside a fused pair must
// break that pair (the hook fires on every execution) while leaving
// observables identical to the unhooked run.
func TestHookDisablesFusionAtSite(t *testing.T) {
	prog := assembleFuse(t)
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

// TestMidRunHookAttach attaches an after-hook to a fused-pair pc from
// inside another hook, partway through the run: fusion state must be
// repaired in place so the new hook sees every later execution.
func TestMidRunHookAttach(t *testing.T) {
	prog := assembleFuse(t)
	// pc 5 is "addi t0, t0, -1", first half of the inner fused pair;
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

	v := vm.New(assembleFuse(t))
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
// the middle instruction of a live three-op superinstruction (add,
// addi, bne — the steady inner-loop triple) from inside another hook,
// partway through the run. unfuse must tear the whole fused region
// down in place, so the late sink sees every subsequent execution of
// its pc with the exact value stream.
func TestMidRunBufferedAttachOnFusedTriple(t *testing.T) {
	prog := assembleFuse(t)
	input := []int64{4}

	var late []int64
	buf := vm.NewValueBuffer(func(vals []int64) { late = append(late, vals...) })
	v := vm.New(prog)
	v.Input = input
	outer := 0
	v.HookAfter(3, func(ev *vm.Event) {
		outer++
		if outer == 3 {
			// pc 5 is "addi t0, t0, -1", second op of the fused
			// (pc4, pc5, pc6) triple.
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
	prog := assembleFuse(t)
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

// TestGeneratedFusionEquivalence sweeps generated programs with and
// without a fusion-disabling step hook; every observable must agree.
// This is the property-level proof that pair fusion is invisible.
func TestGeneratedFusionEquivalence(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(100); seed < uint64(100+seeds); seed++ {
		prog, input := buildGenerated(t, seed)

		fused := vm.New(prog)
		fused.Input = input
		oc1, err1 := fused.RunControlled(context.Background())

		plain := vm.New(prog)
		plain.Input = input
		plain.HookStep(func(*vm.VM) (uint64, error) { return math.MaxUint64, nil })
		oc2, err2 := plain.RunControlled(context.Background())

		if oc1 != oc2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: outcomes differ: %v/%v vs %v/%v", seed, oc1, err1, oc2, err2)
		}
		got, want := vm.ResultOf(fused, oc1), vm.ResultOf(plain, oc2)
		if *got != *want {
			t.Fatalf("seed %d: fused differs from unfused:\n fused: %+v\nplain: %+v", seed, got, want)
		}
		if !reflect.DeepEqual(fused.Regs, plain.Regs) {
			t.Fatalf("seed %d: register files diverged", seed)
		}
	}
}
