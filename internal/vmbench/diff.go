package vmbench

import (
	"fmt"
	"strings"
)

// Diff renders a metric-by-metric comparison of two recorded reports
// (`make bench-diff`) and applies the same ±tol gate Compare uses,
// returning its error alongside the rendering. Absolute ns/inst rows
// are informational — they only mean something when both reports came
// from the same machine — while the hook-overhead ratio and the
// allocation count are what the gate actually holds.
func Diff(baseline, current *Report, tol float64) (string, error) {
	var b strings.Builder
	row := func(name string, old, new float64, format, note string) {
		ratio := "    n/a"
		if old > 0 {
			ratio = fmt.Sprintf("%6.3fx", new/old)
		}
		fmt.Fprintf(&b, "  %-18s "+format+"  -> "+format+"  %s %s\n", name, old, new, ratio, note)
	}
	b.WriteString("gated:\n")
	row("hookOverhead", baseline.HookOverhead, current.HookOverhead, "%8.3f", "(lower better)")
	row("hookedAllocs/run", baseline.HookedAllocsPerRun, current.HookedAllocsPerRun, "%8.0f", "(lower better)")
	b.WriteString("informational (same-machine only):\n")
	row("unhooked ns/inst", baseline.UnhookedNsPerInst, current.UnhookedNsPerInst, "%8.2f", "")
	row("hooked ns/inst", baseline.HookedNsPerInst, current.HookedNsPerInst, "%8.2f", "")
	row("hookedAllocKB/run", baseline.HookedAllocKBPerRun, current.HookedAllocKBPerRun, "%8.1f", "")

	base := make(map[string]float64, len(baseline.PerOp))
	for _, op := range baseline.PerOp {
		base[op.Op] = op.NsPerInst
	}
	if len(current.PerOp) > 0 {
		b.WriteString("per-op ns/inst (informational):\n")
		seen := make(map[string]bool, len(current.PerOp))
		for _, op := range current.PerOp {
			seen[op.Op] = true
			old, ok := base[op.Op]
			if !ok {
				fmt.Fprintf(&b, "  %-18s   (new)   -> %8.2f\n", op.Op, op.NsPerInst)
				continue
			}
			row(op.Op, old, op.NsPerInst, "%8.2f", "")
		}
		for _, op := range baseline.PerOp {
			if !seen[op.Op] {
				fmt.Fprintf(&b, "  %-18s %8.2f -> (dropped)\n", op.Op, op.NsPerInst)
			}
		}
	}
	return b.String(), Compare(baseline, current, tol)
}
