package isa

import "fmt"

// Word is the fixed-width binary encoding of one instruction:
//
//	bits 0..7    opcode
//	bits 8..12   rd
//	bits 16..20  ra
//	bits 24..28  rb
//	bits 32..63  imm (two's complement)
//
// The encoding exists so programs can be serialized (cmd/vasm -o) and so
// the encode/decode round-trip can be property-tested; the VM executes
// decoded Inst values directly.
type Word uint64

// Encode packs the instruction into its binary word.
func (in Inst) Encode() Word {
	w := uint64(in.Op) |
		uint64(in.Rd&0x1f)<<8 |
		uint64(in.Ra&0x1f)<<16 |
		uint64(in.Rb&0x1f)<<24 |
		uint64(uint32(in.Imm))<<32
	return Word(w)
}

// Decode unpacks a binary word. It returns an error for undefined
// opcodes so corrupted images are rejected at load time.
func Decode(w Word) (Inst, error) {
	op := Op(w & 0xff)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d in word %#x", uint8(op), uint64(w))
	}
	return Inst{
		Op:  op,
		Rd:  uint8(w>>8) & 0x1f,
		Ra:  uint8(w>>16) & 0x1f,
		Rb:  uint8(w>>24) & 0x1f,
		Imm: int32(uint32(w >> 32)),
	}, nil
}
