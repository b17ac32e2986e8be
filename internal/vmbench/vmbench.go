// Package vmbench measures the interpreter hot path: per-opcode
// dispatch microbenchmarks, the unhooked loop (fusion active), and the
// same loop under full-time profiling through the batched value
// buffers. The recorded report (BENCH_vm.json) is the repo's VM
// performance baseline; `Compare` gates regressions in `make ci`.
//
// Absolute ns/inst numbers are machine-dependent and recorded for
// context only. The gated quantities are machine-independent: the
// ratio HookOverhead (hooked vs unhooked, timed on the same machine in
// the same process, so the hardware cancels out) and the hooked run's
// allocation count, which depends only on code paths.
package vmbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/program"
)

// OpBench is one per-opcode timing: a tight loop whose body is 32
// copies of the opcode plus the loop tail.
type OpBench struct {
	Op        string  `json:"op"`
	NsPerInst float64 `json:"nsPerInst"`
}

// Report is the recorded VM benchmark baseline.
type Report struct {
	NumCPU     int `json:"numCPU"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Insts is the hot-loop instruction count each timing executed.
	Insts   uint64    `json:"insts"`
	Repeats int       `json:"repeats"`
	PerOp   []OpBench `json:"perOp"`

	UnhookedNsPerInst float64 `json:"unhookedNsPerInst"`
	HookedNsPerInst   float64 `json:"hookedNsPerInst"`

	// HookOverhead = HookedNsPerInst / UnhookedNsPerInst: the cost
	// multiplier of full-time batched profiling. Gated (lower better).
	HookOverhead float64 `json:"hookOverhead"`

	// HookedAllocsPerRun / HookedAllocKBPerRun are the allocator
	// traffic of one full hooked hot-loop run, profiler construction
	// included — the quantity the arena reuse path amortizes away at
	// the pool level. Allocation counts are machine-independent (they
	// depend only on code paths), so the count is gated like the
	// ratio; bytes are recorded for context. Zero in reports recorded
	// before the fields existed, which skips the gate.
	HookedAllocsPerRun  float64 `json:"hookedAllocsPerRun,omitempty"`
	HookedAllocKBPerRun float64 `json:"hookedAllocKBPerRun,omitempty"`
}

// WriteJSON writes the indented JSON form of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a recorded report.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("vmbench: %w", err)
	}
	return &rep, nil
}

// String renders the one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("vm hot loop: unhooked %.1f ns/inst, hooked %.1f (%.2fx overhead)",
		r.UnhookedNsPerInst, r.HookedNsPerInst, r.HookOverhead)
}

// Options sizes the measurement. The zero value selects recording
// quality; tests shrink it.
type Options struct {
	// Outer is the hot-loop trip count (default 2000; ~1.3M
	// instructions per timing).
	Outer int
	// Repeats is how many times each configuration is timed; the
	// minimum is kept (default 5).
	Repeats int
	// SkipPerOp omits the per-opcode sweep.
	SkipPerOp bool
}

func (o Options) withDefaults() Options {
	if o.Outer <= 0 {
		o.Outer = 2000
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	return o
}

// hotSrc is the mixed hot loop used for the hooked-vs-unhooked
// comparison: a representative blend of ALU ops,
// memory traffic, compares and a not-taken branch, with strong top-1
// value bias (like real profiled code, most sites are near-invariant).
const hotSrc = `
main:   syscall getint
        add s0, v0, zero        ; outer trip count
        la  s1, cell
outer:  li t0, 64
inner:  ldq t1, 0(s1)           ; invariant load
        add t2, t1, t0
        and t3, t2, t1
        xor t4, t2, t3
        slli t5, t4, 3
        cmpeq t6, t1, t1        ; invariant compare
        mul t7, t1, t6
        stq t7, 8(s1)
        addi t0, t0, -1
        bne t0, inner
        addi s0, s0, -1
        bne s0, outer
        syscall exit
        .data
cell:   .word 7, 0
`

func mustAssemble(src string) *program.Program {
	p, err := asm.Assemble(src)
	if err != nil {
		panic("vmbench: internal source does not assemble: " + err.Error())
	}
	return p
}

// timeRun executes one profiling configuration repeatedly and returns
// the minimum ns/inst. A nil mkTool times the bare interpreter.
func timeRun(prog *program.Program, input []int64, repeats int, mkTool func() (atom.Tool, func())) (float64, uint64, error) {
	best := time.Duration(1<<63 - 1)
	var insts uint64
	for i := 0; i < repeats; i++ {
		var tools []atom.Tool
		var finish func()
		if mkTool != nil {
			t, f := mkTool()
			tools, finish = []atom.Tool{t}, f
		}
		runtime.GC()
		start := time.Now()
		res, err := atom.Run(prog, input, false, tools...)
		if finish != nil {
			finish()
		}
		elapsed := time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("vmbench: %w", err)
		}
		insts = res.InstCount
		if elapsed < best {
			best = elapsed
		}
	}
	return float64(best.Nanoseconds()) / float64(insts), insts, nil
}

// measureAllocs counts the allocator traffic of one run of the given
// configuration (tool construction included), untimed and outside the
// ns/inst measurements so ReadMemStats pauses cannot skew them. The
// minimum over repeats is kept: background runtime allocations can
// only inflate a sample, never deflate it.
func measureAllocs(prog *program.Program, input []int64, repeats int, mkTool func() (atom.Tool, func())) (allocs, bytes float64, err error) {
	minAllocs, minBytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < repeats; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		var tools []atom.Tool
		var finish func()
		if mkTool != nil {
			t, f := mkTool()
			tools, finish = []atom.Tool{t}, f
		}
		_, runErr := atom.Run(prog, input, false, tools...)
		if finish != nil {
			finish()
		}
		runtime.ReadMemStats(&after)
		if runErr != nil {
			return 0, 0, fmt.Errorf("vmbench: %w", runErr)
		}
		if d := after.Mallocs - before.Mallocs; d < minAllocs {
			minAllocs = d
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < minBytes {
			minBytes = d
		}
	}
	return float64(minAllocs), float64(minBytes) / 1024, nil
}

// perOpOps is the opcode sweep: one loop per opcode with safe,
// side-effect-free operands. The loop tail (addi+bne) is part of every
// measurement, so tail-heavy deltas between ops stay comparable.
var perOpOps = []struct{ name, inst string }{
	{"nop", "nop"},
	{"add", "add t1, t2, t3"},
	{"addi", "addi t1, t2, 7"},
	{"mul", "mul t1, t2, t3"},
	{"div", "div t1, t2, t4"},
	{"and", "and t1, t2, t3"},
	{"xor", "xor t1, t2, t3"},
	{"slli", "slli t1, t2, 3"},
	{"cmpeq", "cmpeq t1, t2, t3"},
	{"ldq", "ldq t1, 0(s1)"},
	{"stq", "stq t2, 8(s1)"},
}

func perOpSrc(inst string) string {
	var b strings.Builder
	b.WriteString(`
main:   syscall getint
        add s0, v0, zero
        la  s1, cell
        li t2, 24
        li t3, 5
        li t4, 3
loop:
`)
	for i := 0; i < 32; i++ {
		b.WriteString("        " + inst + "\n")
	}
	b.WriteString(`        addi s0, s0, -1
        bne s0, loop
        syscall exit
        .data
cell:   .word 7, 0
`)
	return b.String()
}

// Measure times every configuration and returns the report.
func Measure(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	input := []int64{int64(opts.Outer)}
	prog := mustAssemble(hotSrc)

	rep := &Report{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Repeats:    opts.Repeats,
	}

	unhooked, insts, err := timeRun(prog, input, opts.Repeats, nil)
	if err != nil {
		return nil, err
	}
	rep.UnhookedNsPerInst, rep.Insts = unhooked, insts

	profiler := func() (atom.Tool, func()) {
		vp, err := core.NewValueProfiler(core.DefaultOptions())
		if err != nil {
			panic("vmbench: " + err.Error())
		}
		// Draining the buffers is part of the hooked path's cost; it
		// runs inside the timed region like it would in a real
		// profiling pass.
		return vp, vp.FlushBuffers
	}
	hooked, _, err := timeRun(prog, input, opts.Repeats, profiler)
	if err != nil {
		return nil, err
	}
	rep.HookedNsPerInst = hooked
	rep.HookOverhead = hooked / unhooked

	allocs, kb, err := measureAllocs(prog, input, opts.Repeats, profiler)
	if err != nil {
		return nil, err
	}
	rep.HookedAllocsPerRun, rep.HookedAllocKBPerRun = allocs, kb

	if !opts.SkipPerOp {
		// Per-op loops are flat (no inner nest), so the trip count is
		// scaled up until VM setup cost (memory allocation and zeroing,
		// ~1 ms) is noise against the loop itself. Informational, not
		// gated.
		opInput := []int64{int64(opts.Outer*20 + 1)}
		for _, op := range perOpOps {
			ns, _, err := timeRun(mustAssemble(perOpSrc(op.inst)), opInput, opts.Repeats, nil)
			if err != nil {
				return nil, fmt.Errorf("op %s: %w", op.name, err)
			}
			rep.PerOp = append(rep.PerOp, OpBench{Op: op.name, NsPerInst: ns})
		}
	}
	return rep, nil
}

// Compare gates current against a recorded baseline. Only the
// machine-independent quantities are gated, with fractional tolerance
// tol (0.10 = ±10%): HookOverhead may not rise more than tol above the
// baseline, nor HookedAllocsPerRun (see below). Absolute ns/inst
// figures are never compared across recordings.
func Compare(baseline, current *Report, tol float64) error {
	var problems []string
	if ceil := baseline.HookOverhead * (1 + tol); current.HookOverhead > ceil {
		problems = append(problems, fmt.Sprintf(
			"HookOverhead %.3f above ceiling %.3f (baseline %.3f, tol %.0f%%)",
			current.HookOverhead, ceil, baseline.HookOverhead, tol*100))
	}
	// Allocation counts depend on code paths, not hardware, so the
	// hooked-run count is gated too — with a small absolute slack for
	// runtime-internal noise (timer and GC bookkeeping). Baselines
	// recorded before the field existed carry 0 and skip the gate.
	if baseline.HookedAllocsPerRun > 0 {
		if ceil := baseline.HookedAllocsPerRun*(1+tol) + 64; current.HookedAllocsPerRun > ceil {
			problems = append(problems, fmt.Sprintf(
				"HookedAllocsPerRun %.0f above ceiling %.0f (baseline %.0f, tol %.0f%% + 64)",
				current.HookedAllocsPerRun, ceil, baseline.HookedAllocsPerRun, tol*100))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("vmbench: regression vs baseline:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
