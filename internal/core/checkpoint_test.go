package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/atomicio"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// ckptSrc is a deterministic ~21k-instruction workload whose profiled
// values vary per iteration (t0 counts down, t4 mixes in input), so
// TNV tables exercise eviction and periodic clearing across a resume.
const ckptSrc = `
        .proc main
main:   syscall getint
        add t5, v0, zero
loop2:  li t0, 100
loop:   li t1, 42
        add t2, t1, t0
        ldq t3, cell
        add t4, t0, t5
        addi t0, t0, -1
        bne t0, loop
        addi t5, t5, -1
        bne t5, loop2
        syscall exit
        .endproc
        .data
cell:   .word 7
`

var ckptInput = []int64{30}

func assembleCkpt(t *testing.T) *program.Program {
	t.Helper()
	prog, err := asm.Assemble(ckptSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runUninterrupted runs the workload to completion and returns the
// profiler.
func runUninterrupted(t *testing.T, prog *program.Program) *ValueProfiler {
	t.Helper()
	vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res, outcome, err := atom.RunControlled(context.Background(), prog,
		atom.RunOptions{Input: ckptInput}, vp)
	if err != nil || outcome != vm.OutcomeCompleted {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if res.InstCount < 10000 {
		t.Fatalf("workload too short for checkpoint tests: %d insts", res.InstCount)
	}
	return vp
}

// siteStatesOf extracts comparable full per-site state. Like every
// reader of accumulated site state it must drain the batched value
// buffers first.
func siteStatesOf(vp *ValueProfiler) map[int]SiteState {
	vp.FlushBuffers()
	out := make(map[int]SiteState)
	for pc, s := range vp.sites {
		if s.Exec == 0 {
			continue
		}
		out[pc] = siteState(s)
	}
	return out
}

func TestResumeEqualsUninterrupted(t *testing.T) {
	prog := assembleCkpt(t)
	want := siteStatesOf(runUninterrupted(t, prog))

	// Kill the instrumented run at arbitrary instruction counts, both
	// barely past a checkpoint and deep into an interval.
	for _, killAt := range []uint64{1001, 5000, 9999, 17500} {
		path := filepath.Join(t.TempDir(), "run.ckpt")

		vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
		if err != nil {
			t.Fatal(err)
		}
		ckpt := NewCheckpointer(vp, path, 1000, "ckpt", "test")
		killed := errors.New("injected kill")
		kill := atom.ToolFunc(func(ix *atom.Instrumenter) {
			ix.AddStep(func(v *vm.VM) (uint64, error) {
				if v.InstCount >= killAt {
					return 0, killed
				}
				return killAt, nil
			})
		})
		_, outcome, err := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: ckptInput}, vp, ckpt, kill)
		if !errors.Is(err, killed) || outcome != vm.OutcomeFaulted {
			t.Fatalf("killAt %d: outcome %v err %v", killAt, outcome, err)
		}
		if ckpt.Written() == 0 {
			t.Fatalf("killAt %d: no checkpoint written", killAt)
		}

		// Resume from the sidecar file with a fresh profiler and VM.
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("killAt %d: %v", killAt, err)
		}
		if ck.InstCount() == 0 || ck.InstCount() >= killAt+1000 {
			t.Fatalf("killAt %d: checkpoint at odd instcount %d", killAt, ck.InstCount())
		}
		vp2, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if err := vp2.Seed(ck); err != nil {
			t.Fatal(err)
		}
		v := atom.Prepare(prog, atom.RunOptions{Input: ckptInput}, vp2)
		if err := ck.RestoreVM(v); err != nil {
			t.Fatal(err)
		}
		outcome2, err := v.RunControlled(context.Background())
		if err != nil || outcome2 != vm.OutcomeCompleted {
			t.Fatalf("killAt %d: resume outcome %v err %v", killAt, outcome2, err)
		}

		got := siteStatesOf(vp2)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("killAt %d: resumed profile differs from uninterrupted run\n got: %+v\nwant: %+v",
				killAt, got, want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	prog := assembleCkpt(t)
	vp := runUninterrupted(t, prog)
	ck, err := CheckpointOf(vp, nil, "ckpt", "test")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "final.ckpt")
	if err := ck.SaveAtomic(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Sites, ck.Sites) || back.TNV != ck.TNV {
		t.Error("checkpoint state did not round-trip")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	prog := assembleCkpt(t)
	vp := runUninterrupted(t, prog)
	ck, err := CheckpointOf(vp, nil, "ckpt", "test")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := ck.SaveAtomic(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any byte boundary must be detected, not panic.
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("truncated checkpoint (%d bytes) accepted", cut)
		}
	}

	// A flipped payload byte must fail the CRC.
	flipped := append([]byte(nil), data...)
	i := len(flipped) / 2
	flipped[i] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("bit-flipped checkpoint accepted")
	}
}

func TestCrashMidWriteLeavesOldCheckpointLoadable(t *testing.T) {
	prog := assembleCkpt(t)
	vp := runUninterrupted(t, prog)
	ck, err := CheckpointOf(vp, nil, "ckpt", "test")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := ck.SaveAtomic(path); err != nil {
		t.Fatal(err)
	}

	// Simulate the process dying partway through the next snapshot:
	// the staged write stops mid-payload and never renames.
	boom := errors.New("killed")
	err = atomicio.WriteFile(path, func(w io.Writer) error {
		if err := WriteCheckpoint(io.MultiWriter(w), ck); err != nil {
			return err
		}
		_, _ = w.Write([]byte("...partial next snapshot"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after torn write: %v", err)
	}
	if !reflect.DeepEqual(back.Sites, ck.Sites) {
		t.Error("previous checkpoint content changed")
	}
}

func TestSeedRejectsMismatchedConfig(t *testing.T) {
	prog := assembleCkpt(t)
	vp := runUninterrupted(t, prog)
	ck, err := CheckpointOf(vp, nil, "ckpt", "test")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewValueProfiler(Options{TNV: TNVConfig{Size: 4, Steady: 2, ClearInterval: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Seed(ck); err == nil {
		t.Error("mismatched TNV config accepted")
	}
}

func TestMergeRecords(t *testing.T) {
	a := &ProfileRecord{Program: "p", Input: "x", K: 3, Sites: []SiteRecord{
		{PC: 1, Name: "s1", Exec: 10, LVPHits: 5, Zeros: 2,
			Top: []TNVEntry{{Value: 7, Count: 6}, {Value: 9, Count: 4}}},
		{PC: 2, Name: "s2", Exec: 4, Top: []TNVEntry{{Value: 1, Count: 4}}},
	}}
	b := &ProfileRecord{Program: "p", Input: "x", K: 3, Sites: []SiteRecord{
		{PC: 1, Name: "s1", Exec: 6, LVPHits: 1, Zeros: 1,
			Top: []TNVEntry{{Value: 9, Count: 5}, {Value: 3, Count: 1}}},
		{PC: 5, Name: "s5", Exec: 2, Top: []TNVEntry{{Value: 8, Count: 2}}},
	}}
	m, err := MergeRecords(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sites) != 3 {
		t.Fatalf("sites: %+v", m.Sites)
	}
	s1 := m.Sites[0]
	if s1.Exec != 16 || s1.LVPHits != 6 || s1.Zeros != 3 {
		t.Errorf("s1 counters: %+v", s1)
	}
	// Value 9 appears in both halves: counts add (4+5=9 > 6).
	if s1.Top[0].Value != 9 || s1.Top[0].Count != 9 {
		t.Errorf("s1 top: %+v", s1.Top)
	}
	for k := 1; k <= 3; k++ {
		if s1.InvTop(k) > 1.0 {
			t.Errorf("merged InvTop(%d) = %v > 1", k, s1.InvTop(k))
		}
	}
	if _, err := MergeRecords(a, &ProfileRecord{Program: "q", K: 3}); err == nil {
		t.Error("different programs merged")
	}
}
