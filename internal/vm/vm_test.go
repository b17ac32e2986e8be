package vm

import (
	"context"
	"errors"
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

func TestFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div by zero", "main: li t0, 1\n li t1, 0\n div t2, t0, t1\n syscall exit", "division by zero"},
		{"rem by zero", "main: li t0, 1\n li t1, 0\n rem t2, t0, t1\n syscall exit", "remainder by zero"},
		{"null load", "main: ldq t0, 0(zero)\n syscall exit", "out of range"},
		{"huge address", "main: li t0, 0x7fffffff\n slli t0, t0, 8\n ldq t1, 0(t0)\n syscall exit", "out of range"},
		{"bad syscall", "main: syscall 99\n syscall exit", "unknown syscall"},
		{"runs off end", "main: nop", "pc 1 out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := run(t, c.src)
			if err == nil {
				t.Fatalf("no fault, want %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("fault %q does not contain %q", err, c.want)
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
