package vm_test

import (
	"bytes"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// storeSrc stores -1 at addresses read from its input, one stq, one
// stl and one stb per round, until it reads a 0. Each test picks the
// addresses: across a page boundary, near the top of memory, or below
// minValidAddr to fault.
const storeSrc = `
main:   li t1, -1
loop:   syscall getint
        beq v0, done
        stq t1, 0(v0)
        syscall getint
        stl t1, 0(v0)
        syscall getint
        stb t1, 0(v0)
        br loop
done:   syscall exit
`

const page = 4096

// straddling stores: an stq 4 bytes before the end of page 2, an stl 2
// bytes before the end of page 4 and an stb in page 7, so each store
// kind dirties pages of its own, and the first two dirty two pages each.
var straddling = []int64{3*page - 4, 5*page - 2, 7*page + 100}

func assemble(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeros is compared against memory a page run at a time.
var zeros = make([]byte, 64<<10)

// firstNonZero returns the index of b's first non-zero byte, or -1.
func firstNonZero(b []byte) int {
	for off := 0; off < len(b); off += len(zeros) {
		chunk := b[off:min(off+len(zeros), len(b))]
		if !bytes.Equal(chunk, zeros[:len(chunk)]) {
			for i, c := range chunk {
				if c != 0 {
					return off + i
				}
			}
		}
	}
	return -1
}

// checkFresh fails t unless v's memory is the image NewSized(prog,
// memSize) starts from: memSize bytes, zero everywhere outside the data
// segment, which holds prog's data.
func checkFresh(t *testing.T, what string, v *vm.VM, prog *program.Program, memSize int) {
	t.Helper()
	if len(v.Mem) != memSize {
		t.Fatalf("%s: %d bytes of memory, want %d", what, len(v.Mem), memSize)
	}
	lo, hi := int(prog.DataAddr), int(prog.DataAddr)+len(prog.Data)
	if !bytes.Equal(v.Mem[lo:hi], prog.Data) {
		t.Fatalf("%s: the data segment differs from the program's", what)
	}
	if i := firstNonZero(v.Mem[:lo]); i >= 0 {
		t.Fatalf("%s: byte %#x is %#x, want 0", what, i, v.Mem[i])
	}
	if i := firstNonZero(v.Mem[hi:]); i >= 0 {
		t.Fatalf("%s: byte %#x is %#x, want 0", what, hi+i, v.Mem[hi+i])
	}
}

// runStores runs v on addrs and fails t unless the run ends as wantErr
// says.
func runStores(t *testing.T, v *vm.VM, wantErr bool, addrs ...int64) {
	t.Helper()
	v.Input = addrs
	if err := v.Run(); (err != nil) != wantErr {
		t.Fatalf("run on %v: err %v, want error %t", addrs, err, wantErr)
	}
}

// TestResetForClearsDirtiedMemory pins that ResetFor leaves memory as a
// fresh NewSized image although it zeroes only the pages written since
// the last reset: every store kind marks its pages, a store across a
// page boundary marks both, a fault leaves its earlier stores marked,
// Restore marks what it copies, and the pages beyond a smaller memSize
// are cleared too.
func TestResetForClearsDirtiedMemory(t *testing.T) {
	prog := assemble(t, storeSrc)
	other := assemble(t, "main: syscall exit\n .data\nd: .word 7, 8, 9\n")
	const memSize = 64 << 10

	t.Run("straddling stores", func(t *testing.T) {
		v := vm.NewSized(prog, memSize)
		checkFresh(t, "new", v, prog, memSize)
		if fresh := vm.NewSized(prog, memSize); !bytes.Equal(v.Mem, fresh.Mem) {
			t.Fatal("two new VMs differ")
		}
		runStores(t, v, false, straddling...)
		for _, a := range straddling {
			if v.Mem[a] != 0xff {
				t.Fatalf("store at %#x did not land", a)
			}
		}
		v.ResetFor(prog, memSize)
		checkFresh(t, "reset after stores", v, prog, memSize)
		runStores(t, v, false, straddling...)
		v.ResetFor(other, memSize)
		checkFresh(t, "reset onto another program", v, other, memSize)
	})

	t.Run("mid-run fault", func(t *testing.T) {
		v := vm.NewSized(prog, memSize)
		// The second round's stq faults below minValidAddr.
		runStores(t, v, true, append(straddling, 8)...)
		v.ResetFor(prog, memSize)
		checkFresh(t, "reset after a fault", v, prog, memSize)
	})

	t.Run("restore", func(t *testing.T) {
		src := vm.NewSized(prog, memSize)
		runStores(t, src, false, straddling...)
		snap := src.Snapshot()
		for _, size := range []int{memSize, memSize / 2} { // same size, then a resize
			v := vm.NewSized(other, size)
			if err := v.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v.Mem, snap.Mem) {
				t.Fatal("restored memory differs from the snapshot")
			}
			v.ResetFor(other, memSize)
			checkFresh(t, "reset after a restore", v, other, memSize)
		}
	})

	t.Run("reslice", func(t *testing.T) {
		const big, small = memSize, memSize / 2
		top := func(size int) []int64 { // straddling stores near the top of size bytes
			return []int64{int64(size - page - 4), int64(size - 2*page - 2), int64(size - 100)}
		}
		v := vm.NewSized(prog, big)
		runStores(t, v, false, top(big)...)
		v.ResetFor(prog, small)
		checkFresh(t, "big to small", v, prog, small)
		runStores(t, v, false, top(small)...)
		v.ResetFor(prog, big)
		checkFresh(t, "small to big", v, prog, big)
		runStores(t, v, false, top(big)...)
		v.ResetFor(other, small)
		checkFresh(t, "big to small again", v, other, small)
		v.ResetFor(prog, big)
		checkFresh(t, "and back", v, prog, big)
	})
}

// TestResetForAfterSuiteJobs runs every suite job and then resets its
// VM onto each other workload (one other under -short), which must
// leave the fresh image of that workload. It logs how many of the
// 2048 pages of default memory each job dirtied.
func TestResetForAfterSuiteJobs(t *testing.T) {
	all := workloads.All()
	progs := make([]*program.Program, len(all))
	for i, w := range all {
		p, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	v := vm.New(progs[0])
	for i, w := range all {
		for _, in := range w.Inputs() {
			for k := 1; k < len(all); k++ {
				v.ResetFor(progs[i], vm.DefaultMemSize)
				v.Input = in.Args
				if err := v.Run(); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, in.Name, err)
				}
				if k == 1 {
					t.Logf("%s/%s dirtied %d pages", w.Name, in.Name, vm.DirtyPages(v))
				}
				o := (i + k) % len(all)
				v.ResetFor(progs[o], vm.DefaultMemSize)
				checkFresh(t, w.Name+"/"+in.Name+" then "+all[o].Name, v, progs[o], vm.DefaultMemSize)
				if testing.Short() {
					break
				}
			}
		}
	}
}
