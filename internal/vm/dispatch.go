package vm

import "valueprof/internal/isa"

// This file replaces the interpreter's per-instruction switch with a
// precomputed handler table. The switch compiled to a jump through a
// dense range check plus per-case prologue; the table turns dispatch
// into one indexed load and an indirect call, with each opcode's
// semantics in a named handler of its own.

// stepHandler executes one instruction. On success it advances (or
// redirects) v.PC and returns the result value for after-hooks plus
// the effective address of a memory access (0 otherwise). On a fault
// it returns before touching v.PC, so the Fault built from v.PC names
// the faulting instruction.
type stepHandler func(v *VM, pc int, in isa.Inst) (value int64, addr uint64, err error)

// handlers is the dispatch table. 256 entries indexed by the uint8
// opcode mean the dispatching load needs no bounds check; slots beyond
// the defined opcodes fault exactly like the old switch's default arm.
var handlers [256]stepHandler

func init() {
	for i := range handlers {
		handlers[i] = stepBadOp
	}
	handlers[isa.OpNop] = stepNop
	handlers[isa.OpAdd] = stepAdd
	handlers[isa.OpSub] = stepSub
	handlers[isa.OpMul] = stepMul
	handlers[isa.OpDiv] = stepDiv
	handlers[isa.OpRem] = stepRem
	handlers[isa.OpAddi] = stepAddi
	handlers[isa.OpMuli] = stepMuli
	handlers[isa.OpAnd] = stepAnd
	handlers[isa.OpOr] = stepOr
	handlers[isa.OpXor] = stepXor
	handlers[isa.OpAndi] = stepAndi
	handlers[isa.OpOri] = stepOri
	handlers[isa.OpXori] = stepXori
	handlers[isa.OpSll] = stepSll
	handlers[isa.OpSrl] = stepSrl
	handlers[isa.OpSra] = stepSra
	handlers[isa.OpSlli] = stepSlli
	handlers[isa.OpSrli] = stepSrli
	handlers[isa.OpSrai] = stepSrai
	handlers[isa.OpCmpeq] = stepCmpeq
	handlers[isa.OpCmpne] = stepCmpne
	handlers[isa.OpCmplt] = stepCmplt
	handlers[isa.OpCmple] = stepCmple
	handlers[isa.OpCmpgt] = stepCmpgt
	handlers[isa.OpCmpge] = stepCmpge
	handlers[isa.OpCmplti] = stepCmplti
	handlers[isa.OpCmpeqi] = stepCmpeqi
	handlers[isa.OpLdq] = stepLdq
	handlers[isa.OpLdl] = stepLdl
	handlers[isa.OpLdbu] = stepLdbu
	handlers[isa.OpLdb] = stepLdb
	handlers[isa.OpStq] = stepStq
	handlers[isa.OpStl] = stepStl
	handlers[isa.OpStb] = stepStb
	handlers[isa.OpBr] = stepBr
	handlers[isa.OpBeq] = stepBeq
	handlers[isa.OpBne] = stepBne
	handlers[isa.OpJsr] = stepJsr
	handlers[isa.OpJsrr] = stepJsrr
	handlers[isa.OpJmp] = stepJmp
	handlers[isa.OpRet] = stepRet
	handlers[isa.OpSyscall] = stepSyscall
}

func stepBadOp(v *VM, _ int, in isa.Inst) (int64, uint64, error) {
	return 0, 0, v.fault("unimplemented opcode %v", in.Op)
}

func stepNop(v *VM, pc int, _ isa.Inst) (int64, uint64, error) {
	v.PC = pc + 1
	return 0, 0, nil
}

func stepAdd(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] + v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSub(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] - v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepMul(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] * v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepDiv(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	if v.Regs[in.Rb] == 0 {
		return 0, 0, v.fault("division by zero")
	}
	value := v.Regs[in.Ra] / v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepRem(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	if v.Regs[in.Rb] == 0 {
		return 0, 0, v.fault("remainder by zero")
	}
	value := v.Regs[in.Ra] % v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepAddi(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] + int64(in.Imm)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepMuli(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] * int64(in.Imm)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepAnd(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] & v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepOr(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] | v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepXor(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] ^ v.Regs[in.Rb]
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepAndi(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] & int64(in.Imm)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepOri(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] | int64(in.Imm)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepXori(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] ^ int64(in.Imm)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSll(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] << (uint64(v.Regs[in.Rb]) & 63)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSrl(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := int64(uint64(v.Regs[in.Ra]) >> (uint64(v.Regs[in.Rb]) & 63))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSra(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] >> (uint64(v.Regs[in.Rb]) & 63)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSlli(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] << (uint32(in.Imm) & 63)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSrli(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := int64(uint64(v.Regs[in.Ra]) >> (uint32(in.Imm) & 63))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepSrai(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := v.Regs[in.Ra] >> (uint32(in.Imm) & 63)
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmpeq(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] == v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmpne(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] != v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmplt(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] < v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmple(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] <= v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmpgt(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] > v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmpge(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] >= v.Regs[in.Rb])
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmplti(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] < int64(in.Imm))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepCmpeqi(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := b2i(v.Regs[in.Ra] == int64(in.Imm))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, 0, nil
}

func stepLdq(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value, err := v.load(addr, 8)
	if err != nil {
		return 0, 0, err
	}
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, addr, nil
}

func stepLdl(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value, err := v.load(addr, 4)
	if err != nil {
		return 0, 0, err
	}
	value = int64(int32(value))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, addr, nil
}

func stepLdbu(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value, err := v.load(addr, 1)
	if err != nil {
		return 0, 0, err
	}
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, addr, nil
}

func stepLdb(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value, err := v.load(addr, 1)
	if err != nil {
		return 0, 0, err
	}
	value = int64(int8(value))
	v.setReg(in.Rd, value)
	v.PC = pc + 1
	return value, addr, nil
}

func stepStq(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value := v.Regs[in.Rd]
	if err := v.store(addr, 8, value); err != nil {
		return 0, 0, err
	}
	v.PC = pc + 1
	return value, addr, nil
}

func stepStl(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value := v.Regs[in.Rd]
	if err := v.store(addr, 4, value); err != nil {
		return 0, 0, err
	}
	v.PC = pc + 1
	return value, addr, nil
}

func stepStb(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	addr := uint64(v.Regs[in.Ra] + int64(in.Imm))
	value := v.Regs[in.Rd]
	if err := v.store(addr, 1, value); err != nil {
		return 0, 0, err
	}
	v.PC = pc + 1
	return value, addr, nil
}

func stepBr(v *VM, _ int, in isa.Inst) (int64, uint64, error) {
	v.PC = int(in.Imm)
	return 0, 0, nil
}

func stepBeq(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	if v.Regs[in.Ra] == 0 {
		v.PC = int(in.Imm)
	} else {
		v.PC = pc + 1
	}
	return 0, 0, nil
}

func stepBne(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	if v.Regs[in.Ra] != 0 {
		v.PC = int(in.Imm)
	} else {
		v.PC = pc + 1
	}
	return 0, 0, nil
}

func stepJsr(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	value := int64(pc + 1) // link value, visible to after-hooks
	v.setReg(in.Rd, value)
	v.PC = int(in.Imm)
	return value, 0, nil
}

func stepJsrr(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	target := int(v.Regs[in.Ra]) // read before the link write in case Rd == Ra
	value := int64(pc + 1)
	v.setReg(in.Rd, value)
	v.PC = target
	return value, 0, nil
}

func stepJmp(v *VM, _ int, in isa.Inst) (int64, uint64, error) {
	v.PC = int(v.Regs[in.Ra])
	return 0, 0, nil
}

func stepRet(v *VM, _ int, in isa.Inst) (int64, uint64, error) {
	v.PC = int(v.Regs[in.Ra])
	return 0, 0, nil
}

func stepSyscall(v *VM, pc int, in isa.Inst) (int64, uint64, error) {
	val, err := v.syscall(in.Imm)
	if err != nil {
		return 0, 0, err
	}
	v.PC = pc + 1
	return val, 0, nil
}
