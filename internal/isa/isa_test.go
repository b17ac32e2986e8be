package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpInfoComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if opInfo[op].name == "" {
			t.Errorf("opcode %d has no name", uint8(op))
		}
		if opInfo[op].cycles == 0 {
			t.Errorf("opcode %s has zero cycle cost", op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpByName(op.Name())
		if !ok {
			t.Fatalf("OpByName(%q) not found", op.Name())
		}
		if got != op {
			t.Fatalf("OpByName(%q) = %v, want %v", op.Name(), got, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error(`OpByName("bogus") succeeded`)
	}
}

func TestHasDestMatchesClass(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		switch op.Class() {
		case ClassLoad, ClassALU, ClassMulDiv, ClassLogic, ClassShift, ClassCompare:
			if !op.HasDest() {
				t.Errorf("%s (class %s) should have a destination", op, op.Class())
			}
		case ClassStore, ClassBranch, ClassNop, ClassSyscall:
			if op.HasDest() {
				t.Errorf("%s (class %s) should not have a destination", op, op.Class())
			}
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Ra: RegZero, Imm: -7}, "addi r1, zero, -7"},
		{Inst{Op: OpLdq, Rd: 4, Ra: RegSP, Imm: 16}, "ldq r4, 16(sp)"},
		{Inst{Op: OpStb, Rd: 4, Ra: 9, Imm: -1}, "stb r4, -1(r9)"},
		{Inst{Op: OpBr, Imm: 42}, "br 42"},
		{Inst{Op: OpBeq, Ra: 5, Imm: 10}, "beq r5, 10"},
		{Inst{Op: OpJsr, Rd: RegRA, Imm: 100}, "jsr 100"},
		{Inst{Op: OpRet, Ra: RegRA}, "ret ra"},
		{Inst{Op: OpSyscall, Imm: SysPutInt}, "syscall 1"},
		{Inst{Op: OpNop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsBranchOrJump(t *testing.T) {
	if !(Inst{Op: OpBr}).IsBranchOrJump() {
		t.Error("br should end a block")
	}
	if !(Inst{Op: OpSyscall, Imm: SysExit}).IsBranchOrJump() {
		t.Error("syscall exit should end a block")
	}
	if (Inst{Op: OpSyscall, Imm: SysPutInt}).IsBranchOrJump() {
		t.Error("syscall putint should not end a block")
	}
	if (Inst{Op: OpAdd}).IsBranchOrJump() {
		t.Error("add should not end a block")
	}
}

func TestTarget(t *testing.T) {
	if tgt, ok := (Inst{Op: OpJsr, Imm: 17}).Target(); !ok || tgt != 17 {
		t.Errorf("jsr target = %d,%v want 17,true", tgt, ok)
	}
	if _, ok := (Inst{Op: OpJmp, Ra: 3}).Target(); ok {
		t.Error("indirect jmp should have no static target")
	}
	if _, ok := (Inst{Op: OpAdd}).Target(); ok {
		t.Error("add should have no target")
	}
}

func randInst(r *rand.Rand) Inst {
	return Inst{
		Op:  Op(r.Intn(NumOps)),
		Rd:  uint8(r.Intn(NumRegs)),
		Ra:  uint8(r.Intn(NumRegs)),
		Rb:  uint8(r.Intn(NumRegs)),
		Imm: int32(r.Uint32()),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		out, err := Decode(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	if _, err := Decode(Word(0xff)); err == nil {
		t.Error("Decode accepted invalid opcode 0xff")
	}
}

func TestRegNames(t *testing.T) {
	for _, c := range []struct {
		r    uint8
		want string
	}{{RegZero, "zero"}, {RegSP, "sp"}, {RegRA, "ra"}, {RegFP, "fp"}, {0, "r0"}, {17, "r17"}} {
		if got := RegName(c.r); got != c.want {
			t.Errorf("RegName(%d) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); int(c) < NumClasses; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
}
