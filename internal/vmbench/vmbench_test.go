package vmbench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestMeasureSmoke runs a miniature measurement and sanity-checks the
// report's structure. Absolute numbers are machine noise at this size;
// only well-formedness and the ratio identity are asserted.
func TestMeasureSmoke(t *testing.T) {
	rep, err := Measure(Options{Outer: 40, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Insts == 0 || rep.UnhookedNsPerInst <= 0 || rep.HookedNsPerInst <= 0 || rep.HookedAllocsPerRun <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if got := rep.HookedNsPerInst / rep.UnhookedNsPerInst; got != rep.HookOverhead {
		t.Errorf("HookOverhead %v, want %v", rep.HookOverhead, got)
	}
	if len(rep.PerOp) != len(perOpOps) {
		t.Errorf("per-op sweep covered %d ops, want %d", len(rep.PerOp), len(perOpOps))
	}
	for _, op := range rep.PerOp {
		if op.NsPerInst <= 0 {
			t.Errorf("op %s: non-positive ns/inst", op.Op)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Error("report did not round-trip")
	}
}

// TestCompareGatesRatiosOnly pins what the gate holds: the hook
// overhead ratio and the hooked run's allocation count, never an
// absolute ns/inst figure.
func TestCompareGatesRatiosOnly(t *testing.T) {
	base := &Report{HookOverhead: 2.5, UnhookedNsPerInst: 8, HookedAllocsPerRun: 30}

	// Slower machine, same ratio and allocations: fine.
	ok := &Report{HookOverhead: 2.55, UnhookedNsPerInst: 80, HookedAllocsPerRun: 33}
	if err := Compare(base, ok, 0.10); err != nil {
		t.Errorf("within-tolerance report rejected: %v", err)
	}

	heavy := &Report{HookOverhead: 2.8, HookedAllocsPerRun: 30}
	if err := Compare(base, heavy, 0.10); err == nil || !strings.Contains(err.Error(), "HookOverhead") {
		t.Errorf("overhead regression not gated: %v", err)
	}
	leaky := &Report{HookOverhead: 2.5, HookedAllocsPerRun: 200}
	if err := Compare(base, leaky, 0.10); err == nil || !strings.Contains(err.Error(), "HookedAllocsPerRun") {
		t.Errorf("allocation regression not gated: %v", err)
	}
}
