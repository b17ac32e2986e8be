package serve

import (
	"crypto/sha256"
	"sync"
	"unsafe"

	"valueprof/internal/isa"
	"valueprof/internal/program"
)

// programMemoBytes caps the memo of verified programs. A program is
// charged its canonical image plus its decoded code and data, so the
// memo holds at least a few hundred of the largest workloads (the
// compress image is 208 KB) and a program too large for the whole cap
// is never stored.
const programMemoBytes = 64 << 20

// programMemo remembers the programs a server has accepted, keyed by
// their wire form, so a repeat submission skips the base64 decode,
// assembly or program.Load, analysis.Verify, the vm.CheckFit at
// vm.MaxMemSize and the canonical re-save. Every job of a program then
// shares one *program.Program and one image, read-only, as vprof shares
// one Program per workload. Only programs that passed every check are
// stored, so a rejected one fails the same way each time it comes.
type programMemo struct {
	mu    sync.Mutex
	progs *lru[[sha256.Size]byte, memoProgram]
}

type memoProgram struct {
	prog  *program.Program
	image []byte
}

func newProgramMemo() *programMemo {
	return &programMemo{progs: newLRU[[sha256.Size]byte, memoProgram](programMemoBytes)}
}

// decode is decodeProgram answered from the memo when it can be. The
// key is SHA-256 over the form and the wire text as received: the
// assembly, or the image's base64 text.
func (m *programMemo) decode(wp WireProgram) (*program.Program, []byte, error) {
	form, text := "asm\x00", wp.Asm
	if text == "" {
		form, text = "image\x00", wp.Image
	}
	if text == "" || wp.Asm != "" && wp.Image != "" {
		return decodeProgram(wp) // refuses a missing or doubled program
	}
	h := sha256.New()
	h.Write([]byte(form))
	h.Write([]byte(text))
	var key [sha256.Size]byte
	h.Sum(key[:0])

	m.mu.Lock()
	e, ok := m.progs.get(key)
	m.mu.Unlock()
	if ok {
		return e.prog, e.image, nil
	}
	prog, image, err := decodeProgram(wp)
	if err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A concurrent submission of the same program may have stored it
	// first; share its copy.
	if e, ok := m.progs.get(key); ok {
		return e.prog, e.image, nil
	}
	cost := int64(len(image)) + int64(len(prog.Code))*int64(unsafe.Sizeof(isa.Inst{})) + int64(len(prog.Data))
	m.progs.add(key, memoProgram{prog, image}, cost)
	return prog, image, nil
}
