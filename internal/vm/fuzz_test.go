package vm_test

import (
	"bytes"
	"context"
	"testing"

	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// FuzzLoadRun drives the boundary an untrusted image crosses into the
// VM: program.Load, then vm.CheckFit at a small memory size, then a
// run under a small step limit. Every input must stop at one of the
// gates or run to an outcome, and never panic. The corpus under
// testdata/fuzz holds a workload image and one whose data segment
// starts at 1<<40.
func FuzzLoadRun(f *testing.F) {
	const memSize, steps = 1 << 16, 100000
	f.Add([]byte("VPX1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := program.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := vm.CheckFit(prog, memSize); err != nil {
			return
		}
		v := vm.NewSized(prog, memSize)
		v.StepLimit = steps
		outcome, err := v.RunControlled(context.Background())
		if (err == nil) != (outcome == vm.OutcomeCompleted) {
			t.Fatalf("outcome %v with error %v", outcome, err)
		}
	})
}
