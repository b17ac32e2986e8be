package core_test

import (
	"context"
	"path/filepath"
	"testing"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// TestCheckpointerSchedule pins where periodic snapshots land. The
// checkpointer arms after the run's first instruction, so over an
// N-instruction run with interval E it writes ⌊(N−1)/E⌋ snapshots and
// the sidecar holds the state at instruction 1 + ⌊(N−1)/E⌋·E. An
// interval of N−1 puts the only snapshot on the exiting instruction;
// an interval of N writes none.
func TestCheckpointerSchedule(t *testing.T) {
	w, err := workloads.ByName("sortq")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Run(w.Test)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.InstCount
	for _, every := range []uint64{1 << 18, 400000, n - 1, n} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		vp, err := core.NewValueProfiler(core.Options{TNV: core.DefaultTNVConfig()})
		if err != nil {
			t.Fatal(err)
		}
		ckpt := core.NewCheckpointer(vp, path, every, w.Name, w.Test.Name)
		res, outcome, err := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: w.Test.Args, MemSize: 1 << 20}, vp, ckpt)
		if err != nil || outcome != vm.OutcomeCompleted {
			t.Fatalf("every %d: outcome %v err %v", every, outcome, err)
		}
		if res.InstCount != n {
			t.Fatalf("every %d: profiled run took %d instructions, unprofiled %d", every, res.InstCount, n)
		}
		snaps := (n - 1) / every
		if ckpt.Written() != snaps || ckpt.Err() != nil {
			t.Fatalf("every %d over %d insts: wrote %d snapshots (err %v), want %d",
				every, n, ckpt.Written(), ckpt.Err(), snaps)
		}
		if snaps == 0 {
			continue
		}
		ck, err := core.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ck.InstCount(), 1+snaps*every; got != want {
			t.Fatalf("every %d: sidecar at instruction %d, want %d", every, got, want)
		}
	}
}
