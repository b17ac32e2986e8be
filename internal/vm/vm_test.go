package vm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/isa"
	"valueprof/internal/program"
)

func run(t *testing.T, src string, input ...int64) (*VM, error) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	v := New(p)
	v.Input = input
	return v, v.Run()
}

func mustRun(t *testing.T, src string, input ...int64) *VM {
	t.Helper()
	v, err := run(t, src, input...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	v := mustRun(t, `
main:   li a0, 7
        li t0, 3
        mul a0, a0, t0      ; 21
        addi a0, a0, -1     ; 20
        li t1, 6
        div t2, a0, t1      ; 3
        rem t3, a0, t1      ; 2
        add a0, t2, t3      ; 5
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "5" {
		t.Errorf("output = %q, want 5", got)
	}
}

func TestNegativeDivRem(t *testing.T) {
	v := mustRun(t, `
main:   li t0, -7
        li t1, 2
        div a0, t0, t1
        syscall putint
        li a0, 32
        syscall putchar
        rem a0, t0, t1
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "-3 -1" {
		t.Errorf("output = %q, want -3 -1 (Go truncated division)", got)
	}
}

func TestLogicAndShifts(t *testing.T) {
	v := mustRun(t, `
main:   li t0, 0xF0
        li t1, 0x3C
        and a0, t0, t1      ; 0x30
        or  a1, t0, t1      ; 0xFC
        xor a2, t0, t1      ; 0xCC
        slli a3, t1, 2      ; 0xF0
        srli a4, t0, 4      ; 0x0F
        li t2, -16
        srai a5, t2, 2      ; -4
        add v0, a0, a1
        add v0, v0, a2
        add v0, v0, a3
        add v0, v0, a4
        add v0, v0, a5
        mov a0, v0
        syscall putint
        syscall exit
`)
	want := int64(0x30 + 0xFC + 0xCC + 0xF0 + 0x0F - 4)
	if got := v.Output.String(); got != "755" || want != 755 {
		t.Errorf("output = %q, want %d", got, want)
	}
}

func TestComparisons(t *testing.T) {
	v := mustRun(t, `
main:   li t0, 3
        li t1, 5
        cmplt a0, t0, t1    ; 1
        cmpgt a1, t0, t1    ; 0
        cmpeq a2, t0, t0    ; 1
        cmpne a3, t0, t1    ; 1
        cmple a4, t1, t1    ; 1
        cmpge a5, t0, t1    ; 0
        cmplti t2, t0, 10   ; 1
        cmpeqi t3, t0, 3    ; 1
        add v0, a0, a1
        add v0, v0, a2
        add v0, v0, a3
        add v0, v0, a4
        add v0, v0, a5
        add v0, v0, t2
        add v0, v0, t3
        mov a0, v0
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "6" {
		t.Errorf("output = %q, want 6", got)
	}
}

func TestMemoryWidths(t *testing.T) {
	v := mustRun(t, `
main:   la t0, buf
        li t1, 0x12345678
        slli t1, t1, 8      ; 0x1234567800
        ori t1, t1, 0x90    ; 0x1234567890
        stq t1, 0(t0)
        ldq a0, 0(t0)
        syscall putint      ; 78187493520
        li a0, 32
        syscall putchar
        li t2, -2
        stb t2, 8(t0)
        ldbu a0, 8(t0)
        syscall putint      ; 254
        li a0, 32
        syscall putchar
        ldb a0, 8(t0)
        syscall putint      ; -2
        li a0, 32
        syscall putchar
        li t3, -5
        stl t3, 16(t0)
        ldl a0, 16(t0)
        syscall putint      ; -5
        syscall exit
        .data
buf:    .space 32
`)
	if got := v.Output.String(); got != "78187493520 254 -2 -5" {
		t.Errorf("output = %q", got)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 = 55.
	v := mustRun(t, `
main:   li t0, 10
        li t1, 0
loop:   beq t0, done
        add t1, t1, t0
        addi t0, t0, -1
        br loop
done:   mov a0, t1
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "55" {
		t.Errorf("output = %q, want 55", got)
	}
}

func TestCallAndStack(t *testing.T) {
	// Recursive factorial via the stack.
	v := mustRun(t, `
        .proc main
main:   li a0, 6
        jsr fact
        mov a0, v0
        syscall putint
        syscall exit
        .endproc
        .proc fact
fact:   bne a0, rec
        li v0, 1
        ret
rec:    addi sp, sp, -16
        stq ra, 0(sp)
        stq a0, 8(sp)
        addi a0, a0, -1
        jsr fact
        ldq a0, 8(sp)
        ldq ra, 0(sp)
        addi sp, sp, 16
        mul v0, v0, a0
        ret
        .endproc
`)
	if got := v.Output.String(); got != "720" {
		t.Errorf("output = %q, want 720", got)
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	v := mustRun(t, `
        .data
fptr:   .word 0
        .text
        .proc main
main:   li t0, g            ; address of procedure g (instruction index)
        la t1, fptr
        stq t0, 0(t1)
        ldq t2, 0(t1)
        jsrr t2
        mov a0, v0
        syscall putint
        syscall exit
        .endproc
        .proc g
g:      li v0, 42
        ret
        .endproc
`)
	if got := v.Output.String(); got != "42" {
		t.Errorf("output = %q, want 42", got)
	}
}

func TestSyscallIO(t *testing.T) {
	v := mustRun(t, `
main:   syscall getint
        mov t0, v0
        syscall getint
        add a0, t0, v0
        syscall putint
        la a0, msg
        syscall putstr
        syscall getint      ; EOF -> 0
        mov a0, v0
        syscall putint
        syscall exit
        .data
msg:    .asciiz "!\n"
`, 30, 12)
	if got := v.Output.String(); got != "42!\n0" {
		t.Errorf("output = %q", got)
	}
}

func TestExitStatus(t *testing.T) {
	v := mustRun(t, "main: li a0, 3\n syscall exit\n")
	if v.ExitStatus != 3 {
		t.Errorf("exit status = %d, want 3", v.ExitStatus)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	v := mustRun(t, `
main:   li zero, 77
        mov a0, zero
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "0" {
		t.Errorf("output = %q, want 0 (zero register must stay 0)", got)
	}
}

// TestFaults pins each fault's message and the state it leaves: Fault.PC
// and v.PC name the faulting instruction, which is excluded from
// InstCount and Cycles, while every charge made before it (buffered
// sites under ChargeHooks included) stays counted.
func TestFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
		// patch, when set, edits the assembled program before the run
		// (to plant what the assembler refuses to emit).
		patch    func(*program.Program)
		buffered []int // pcs given a buffered after-sink
		charge   bool  // ChargeHooks
		pc       int   // faulting pc
		insts    uint64
		cycles   uint64
		calls    uint64
	}{
		{name: "div by zero", src: "main: li t0, 1\n li t1, 0\n div t2, t0, t1\n syscall exit", want: "division by zero", pc: 2, insts: 2, cycles: 2},
		{name: "rem by zero", src: "main: li t0, 1\n li t1, 0\n rem t2, t0, t1\n syscall exit", want: "remainder by zero", pc: 2, insts: 2, cycles: 2},
		{name: "null load", src: "main: ldq t0, 0(zero)\n syscall exit", want: "out of range"},
		{name: "huge address", src: "main: li t0, 0x7fffffff\n slli t0, t0, 8\n ldq t1, 0(t0)\n syscall exit", want: "out of range", pc: 2, insts: 2, cycles: 2},
		// Addresses within the access size of 2^64: addr+size wraps.
		{name: "load wraps -4", src: "main: ldq t1, -4(zero)\n syscall exit", want: "out of range"},
		{name: "load wraps -8", src: "main: ldq t1, -8(zero)\n syscall exit", want: "out of range"},
		{name: "byte load at 2^64-1", src: "main: li t0, -1\n ldbu t1, 0(t0)\n syscall exit", want: "out of range", pc: 1, insts: 1, cycles: 1},
		{name: "store wraps -2", src: "main: stl t1, -2(zero)\n syscall exit", want: "out of range"},
		// Each access width faults in its own switch arm.
		{name: "ldl below memory", src: "main: nop\n ldl t1, 0(zero)\n syscall exit", want: "at 0x0 size 4 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "ldb below memory", src: "main: nop\n ldb t1, 255(zero)\n syscall exit", want: "at 0xff size 1 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "stq past memory", src: "main: li t0, 0x7ffffc\n stq t1, 0(t0)\n syscall exit", want: "at 0x7ffffc size 8 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "stb past memory", src: "main: li t0, 0x800000\n stb t1, 0(t0)\n syscall exit", want: "at 0x800000 size 1 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "putstr below memory", src: "main: li a0, 16\n syscall putstr\n syscall exit", want: "at 0x10 size 1 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "bad syscall", src: "main: syscall 99\n syscall exit", want: "unknown syscall"},
		{name: "runs off end", src: "main: nop", want: "pc 1 out of range", pc: 1, insts: 1, cycles: 1},
		{name: "undefined opcode", src: "main: mul t0, t1, t2\n nop\n syscall exit", want: "unimplemented opcode op(200)",
			patch: func(p *program.Program) { p.Code[1].Op = 200 }, pc: 1, insts: 1, cycles: 8},
		// Two buffered sites each charge one analysis call and
		// AnalysisCallCycles before the division faults: 1+1+12+12.
		{name: "fault after buffered sites", src: "main: li t0, 1\n li t1, 0\n div t2, t0, t1\n syscall exit", want: "division by zero",
			buffered: []int{0, 1}, charge: true, pc: 2, insts: 2, cycles: 26, calls: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := asm.Assemble(c.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if c.patch != nil {
				c.patch(p)
			}
			v := New(p)
			v.ChargeHooks = c.charge
			for _, pc := range c.buffered {
				v.HookAfterBuffered(pc, NewValueBuffer(func([]int64) {}))
			}
			err = v.Run()
			if err == nil {
				t.Fatalf("no fault, want %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("fault %q does not contain %q", err, c.want)
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("error %T is not a *Fault", err)
			}
			if f.PC != c.pc || v.PC != c.pc {
				t.Errorf("Fault.PC %d, v.PC %d, want %d", f.PC, v.PC, c.pc)
			}
			if v.InstCount != c.insts || v.Cycles != c.cycles || v.AnalysisCalls != c.calls {
				t.Errorf("at the fault: %d insts, %d cycles, %d analysis calls; want %d, %d, %d",
					v.InstCount, v.Cycles, v.AnalysisCalls, c.insts, c.cycles, c.calls)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	p, err := asm.Assemble("main: br main\n")
	if err != nil {
		t.Fatal(err)
	}
	v := New(p)
	v.StepLimit = 1000
	err = v.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit fault", err)
	}
}

// TestStepCancelStopsAtQuantumBoundary pins where a cancellation raised
// by a step routine takes effect: at the next quantum check, counted
// from run start, so under Quantum 64 a routine that cancels at
// instruction x stops the run at ⌈x/64⌉·64.
func TestStepCancelStopsAtQuantumBoundary(t *testing.T) {
	p, err := asm.Assemble(`
main:   li t0, 100000
loop:   addi t0, t0, -1
        bne t0, loop
        syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, want uint64 }{{1, 64}, {64, 64}, {65, 128}, {129, 192}, {1000, 1024}} {
		ctx, cancel := context.WithCancel(context.Background())
		v := New(p)
		v.Quantum = 64
		v.HookStep(func(v *VM) (uint64, error) {
			if v.InstCount == c.x {
				cancel()
			}
			return c.x, nil
		})
		outcome, err := v.RunControlled(ctx)
		cancel()
		if outcome != OutcomeCancelled || !errors.Is(err, context.Canceled) || v.InstCount != c.want {
			t.Errorf("cancel at %d: outcome %v err %v at instruction %d, want cancelled at %d",
				c.x, outcome, err, v.InstCount, c.want)
		}
	}
}

func TestCyclesCharged(t *testing.T) {
	v := mustRun(t, "main: add t0, t1, t2\n mul t3, t0, t0\n syscall exit\n")
	want := uint64(isa.OpAdd.Cycles() + isa.OpMul.Cycles() + isa.OpSyscall.Cycles())
	if v.Cycles != want {
		t.Errorf("cycles = %d, want %d", v.Cycles, want)
	}
	if v.InstCount != 3 {
		t.Errorf("inst count = %d, want 3", v.InstCount)
	}
}

func TestHooks(t *testing.T) {
	p, err := asm.Assemble(`
main:   li t0, 3
loop:   addi t0, t0, -1
        bne t0, loop
        syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	v := New(p)
	var beforeCount, afterCount, endCount int
	var values []int64
	v.HookBefore(1, func(ev *Event) {
		beforeCount++
		if ev.Inst.Op != isa.OpAddi {
			t.Errorf("before hook saw %v", ev.Inst.Op)
		}
	})
	v.HookAfter(1, func(ev *Event) {
		afterCount++
		values = append(values, ev.Value)
	})
	v.HookEnd(func(ev *Event) { endCount++ })
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if beforeCount != 3 || afterCount != 3 {
		t.Errorf("hook counts = %d,%d, want 3,3", beforeCount, afterCount)
	}
	if endCount != 1 {
		t.Errorf("end hooks ran %d times", endCount)
	}
	if len(values) != 3 || values[0] != 2 || values[1] != 1 || values[2] != 0 {
		t.Errorf("after-hook values = %v, want [2 1 0]", values)
	}
	if v.AnalysisCalls != 6 {
		t.Errorf("analysis calls = %d, want 6", v.AnalysisCalls)
	}
}

func TestHookChargesCycles(t *testing.T) {
	p, err := asm.Assemble("main: nop\n syscall exit\n")
	if err != nil {
		t.Fatal(err)
	}
	base := New(p)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	v := New(p)
	v.ChargeHooks = true
	v.HookAfter(0, func(*Event) {})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Cycles != base.Cycles+AnalysisCallCycles {
		t.Errorf("instrumented cycles = %d, want %d", v.Cycles, base.Cycles+AnalysisCallCycles)
	}
}

func TestStoreHookSeesValueAndAddr(t *testing.T) {
	p, err := asm.Assemble(`
main:   la t0, buf
        li t1, 99
        stq t1, 8(t0)
        syscall exit
        .data
buf:    .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	v := New(p)
	var gotVal int64
	var gotAddr uint64
	v.HookAfter(2, func(ev *Event) { gotVal, gotAddr = ev.Value, ev.Addr })
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if gotVal != 99 {
		t.Errorf("store hook value = %d, want 99", gotVal)
	}
	if gotAddr != uint64(program.DataBase+8) {
		t.Errorf("store hook addr = %#x, want %#x", gotAddr, program.DataBase+8)
	}
}

func TestResetPreservesHooksAndInput(t *testing.T) {
	p, err := asm.Assemble("main: syscall getint\n mov a0, v0\n syscall putint\n syscall exit\n")
	if err != nil {
		t.Fatal(err)
	}
	v := New(p)
	v.Input = []int64{7}
	count := 0
	v.HookAfter(0, func(*Event) { count++ })
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	v.Reset()
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("hook ran %d times across two runs, want 2", count)
	}
	if got := v.Output.String(); got != "7" {
		t.Errorf("second run output = %q, want 7 (input must rewind)", got)
	}
}

func TestExecuteHelper(t *testing.T) {
	p, err := asm.Assemble("main: syscall getint\n mov a0, v0\n syscall putint\n li a0, 0\n syscall exit\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, []int64{123})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "123" || res.ExitStatus != 0 || res.InstCount != 5 {
		t.Errorf("result = %+v", res)
	}
}

func TestClockSyscall(t *testing.T) {
	v := mustRun(t, `
main:   syscall clock
        mov t0, v0
        nop
        nop
        syscall clock
        sub t1, v0, t0
        cmpgt a0, t1, zero
        syscall putint
        syscall exit
`)
	if got := v.Output.String(); got != "1" {
		t.Errorf("clock did not advance: %q", got)
	}
}

// vmState is what instrumentation can read off the VM mid-run.
type vmState struct {
	PC                               int
	InstCount, Cycles, AnalysisCalls uint64
}

// TestStateVisibleToHooks pins what closure hooks and step routines
// see: the VM's pc and counters exactly as of their call, with buffered
// sites and hook calls charged under ChargeHooks. A syscall clock read
// includes every charge made before it, its own instruction's before
// hook too.
func TestStateVisibleToHooks(t *testing.T) {
	p, err := asm.Assemble(`
main:   li t0, 3            ; pc 0, buffered
loop:   addi t0, t0, -1     ; pc 1, buffered, before hook
        mul t1, t1, t0      ; pc 2, after hook
        bne t0, loop        ; pc 3
        syscall clock       ; pc 4, before hook
        mov a0, v0          ; pc 5
        syscall putint      ; pc 6
        syscall exit        ; pc 7
`)
	if err != nil {
		t.Fatal(err)
	}
	v := New(p)
	v.ChargeHooks = true
	seen := func(log *[]vmState) Hook {
		return func(ev *Event) {
			*log = append(*log, vmState{ev.VM.PC, ev.VM.InstCount, ev.VM.Cycles, ev.VM.AnalysisCalls})
		}
	}
	var before, after, steps []vmState
	v.HookAfterBuffered(0, NewValueBuffer(func([]int64) {}))
	v.HookAfterBuffered(1, NewValueBuffer(func([]int64) {}))
	v.HookBefore(1, seen(&before))
	v.HookBefore(4, seen(&before))
	v.HookAfter(2, seen(&after))
	v.HookStep(func(v *VM) (uint64, error) {
		steps = append(steps, vmState{v.PC, v.InstCount, v.Cycles, v.AnalysisCalls})
		return v.InstCount + 1, nil
	})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}

	// The reference walks the known pc trace with the timing model: a
	// before hook sees the state ahead of its instruction, pc at it,
	// and is charged once it returns; the instruction retires, its
	// buffered sink is charged, an after hook sees that with pc
	// advanced and is charged in turn; a step routine sees everything
	// up to and including its instruction.
	var wantBefore, wantAfter, wantSteps []vmState
	var n, cycles, calls uint64
	charge := func() { calls++; cycles += AnalysisCallCycles }
	trace := []int{0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7}
	for i, pc := range trace {
		if pc == 1 || pc == 4 {
			wantBefore = append(wantBefore, vmState{pc, n, cycles, calls})
			charge()
		}
		n++
		cycles += uint64(p.Code[pc].Op.Cycles())
		if pc <= 1 {
			charge()
		}
		next := pc + 1 // exit, too, advances pc as it halts
		if i+1 < len(trace) {
			next = trace[i+1]
		}
		if pc == 2 {
			wantAfter = append(wantAfter, vmState{next, n, cycles, calls})
			charge()
		}
		wantSteps = append(wantSteps, vmState{next, n, cycles, calls})
	}
	if !reflect.DeepEqual(before, wantBefore) {
		t.Errorf("before hooks saw\n%v\nwant\n%v", before, wantBefore)
	}
	if !reflect.DeepEqual(after, wantAfter) {
		t.Errorf("after hook saw\n%v\nwant\n%v", after, wantAfter)
	}
	if !reflect.DeepEqual(steps, wantSteps) {
		t.Errorf("step routine saw\n%v\nwant\n%v", steps, wantSteps)
	}
	if v.InstCount != n || v.Cycles != cycles || v.AnalysisCalls != calls {
		t.Errorf("final state %d insts, %d cycles, %d calls; want %d, %d, %d",
			v.InstCount, v.Cycles, v.AnalysisCalls, n, cycles, calls)
	}

	// The clock read at pc 4, by hand: li 1 + buffered 12, then three
	// iterations of (before hook 12, addi 1, buffered 12, mul 8, after
	// hook 12, bne 2) = 3*47, then the clock's own before hook 12:
	// 13 + 141 + 12 = 166.
	if got := v.Output.String(); got != "166" {
		t.Errorf("syscall clock printed %q, want 166", got)
	}
}

// TestOutputLimit: guest output stops at MaxOutput bytes. The syscall
// that would write past it faults at its pc; putstr has written the
// bytes up to the limit by then, putint writes none of its digits.
func TestOutputLimit(t *testing.T) {
	cases := []struct {
		name string
		fill int    // 'A's NUL-terminated at buf, printed by the putstr at pc 1
		tail string // instructions after the putstr
		pc   int    // faulting pc, -1 for none
		out  int    // output length at the end
	}{
		{"putstr to the limit", MaxOutput, "", -1, MaxOutput},
		{"putstr one past", MaxOutput + 1, "", 1, MaxOutput},
		{"putchar one past", MaxOutput, "li a0, 66\n syscall putchar\n", 3, MaxOutput},
		{"putint past", MaxOutput - 1, "li a0, 42\n syscall putint\n", 3, MaxOutput - 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf("main: la a0, buf\n syscall putstr\n %s syscall exit\n .data\nbuf: .space %d\n", c.tail, c.fill+1)
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			v := New(p)
			buf := p.DataSyms["buf"]
			for i := range c.fill {
				v.Mem[buf+uint64(i)] = 'A'
			}
			err = v.Run()
			if v.Output.Len() != c.out {
				t.Errorf("output is %d bytes, want %d", v.Output.Len(), c.out)
			}
			if c.pc < 0 {
				if err != nil {
					t.Fatalf("run faulted: %v", err)
				}
				return
			}
			var f *Fault
			if !errors.As(err, &f) || f.PC != c.pc || !strings.Contains(f.Msg, "output limit") {
				t.Fatalf("err = %v, want an output limit fault at pc %d", err, c.pc)
			}
		})
	}
}

// TestCheckFit pins the gate for untrusted programs and memory sizes:
// the data segment must lie inside guest memory, computed without
// forming DataAddr+len(Data), which wraps near 2^64, and memory may
// not exceed MaxMemSize.
func TestCheckFit(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		mem  int
		ok   bool
	}{
		{"default memory", program.DataBase, DefaultMemSize, true},
		{"exactly full", program.DataBase, program.DataBase + 16, true},
		{"one byte short", program.DataBase, program.DataBase + 15, false},
		{"starts past the end", 1 << 40, DefaultMemSize, false},
		{"end wraps past 2^64", math.MaxUint64 - 7, DefaultMemSize, false},
		{"at the cap", program.DataBase, MaxMemSize, true},
		{"over the cap", program.DataBase, MaxMemSize + 1, false},
		{"negative size", program.DataBase, -1, false},
	}
	for _, c := range cases {
		p := &program.Program{DataAddr: c.addr, Data: make([]byte, 16)}
		if err := CheckFit(p, c.mem); (err == nil) != c.ok {
			t.Errorf("%s: CheckFit(data at %#x, %d bytes) = %v, want ok %v", c.name, c.addr, c.mem, err, c.ok)
		}
	}
}
