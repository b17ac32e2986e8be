package core

import (
	"math"
	"strings"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/isa"
)

const loopSrc = `
        .proc main
main:   li t0, 100
loop:   li t1, 42
        add t2, t1, t0
        ldq t3, cell
        addi t0, t0, -1
        bne t0, loop
        syscall exit
        .endproc
        .data
cell:   .word 7
`

// pcs in loopSrc: 0 li t0 | 1 li t1 | 2 add | 3 ldq | 4 addi | 5 bne | 6 syscall

func profileLoop(t *testing.T, opts Options) *Profile {
	t.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewValueProfiler(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	return vp.Profile()
}

func TestProfilerSiteSelection(t *testing.T) {
	pr := profileLoop(t, Options{TNV: DefaultTNVConfig(), TrackFull: true})
	// Sites: 0,1,2,3,4 (result-producing); not 5 (branch) or 6 (syscall).
	if len(pr.Sites) != 5 {
		t.Fatalf("sites = %d, want 5", len(pr.Sites))
	}
	if pr.Site(5) != nil || pr.Site(6) != nil {
		t.Error("branch/syscall profiled")
	}
}

func TestProfilerMetricsExact(t *testing.T) {
	pr := profileLoop(t, Options{TNV: DefaultTNVConfig(), TrackFull: true})

	constant := pr.Site(1) // li t1, 42 — 100 executions of 42
	if constant.Exec != 100 || constant.InvTop(1) != 1.0 {
		t.Errorf("constant site: exec=%d inv=%v", constant.Exec, constant.InvTop(1))
	}
	if constant.LVP() != 0.99 {
		t.Errorf("constant site LVP = %v", constant.LVP())
	}

	varying := pr.Site(2) // 42+t0, all distinct
	if varying.LVP() != 0 || varying.InvAll(1) != 0.01 {
		t.Errorf("varying site: LVP=%v invAll=%v", varying.LVP(), varying.InvAll(1))
	}

	load := pr.Site(3) // always loads 7
	if load.InvTop(1) != 1.0 || load.PctZero() != 0 {
		t.Errorf("load site: inv=%v zero=%v", load.InvTop(1), load.PctZero())
	}

	counter := pr.Site(4) // 99..0: exactly one zero
	if counter.Zeros != 1 {
		t.Errorf("counter zeros = %d", counter.Zeros)
	}

	once := pr.Site(0)
	if once.Exec != 1 {
		t.Errorf("entry site exec = %d", once.Exec)
	}
}

func TestProfilerLoadsOnlyFilter(t *testing.T) {
	pr := profileLoop(t, Options{Filter: LoadsOnly, TNV: DefaultTNVConfig()})
	if len(pr.Sites) != 1 || pr.Sites[0].PC != 3 {
		t.Fatalf("loads-only sites = %+v", pr.Sites)
	}
}

func TestClassOnlyFilter(t *testing.T) {
	pr := profileLoop(t, Options{Filter: ClassOnly(isa.ClassCompare), TNV: DefaultTNVConfig()})
	if len(pr.Sites) != 0 {
		t.Fatalf("compare sites = %d, want 0", len(pr.Sites))
	}
	pr = profileLoop(t, Options{Filter: ClassOnly(isa.ClassALU), TNV: DefaultTNVConfig()})
	// ALU sites: 0 (li), 1 (li), 2 (add), 4 (addi).
	if len(pr.Sites) != 4 {
		t.Fatalf("alu sites = %d, want 4", len(pr.Sites))
	}
}

func TestProfileAggregateAndTopSites(t *testing.T) {
	pr := profileLoop(t, Options{TNV: DefaultTNVConfig(), TrackFull: true})
	m := pr.Aggregate()
	if m.Execs != 401 { // 1 + 4*100
		t.Errorf("execs = %d, want 401", m.Execs)
	}
	top := pr.TopSites(2)
	if len(top) != 2 || top[0].Exec != 100 {
		t.Errorf("top sites = %+v", top)
	}
	if pr.DutyCycle() != 1.0 {
		t.Errorf("full profiling duty = %v", pr.DutyCycle())
	}
	counts, frac := pr.CountByClass(DefaultThresholds())
	if counts[Invariant] < 2 { // li 42, ldq 7 (and li 100 with 1 exec)
		t.Errorf("invariant count = %d; counts=%v frac=%v", counts[Invariant], counts, frac)
	}
	var sum float64
	for _, f := range frac {
		sum += f
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("class fractions sum to %v", sum)
	}
}

func TestProfilerRejectsBadOptions(t *testing.T) {
	if _, err := NewValueProfiler(Options{TNV: TNVConfig{Size: 3, Steady: 9}}); err == nil {
		t.Error("bad TNV config accepted")
	}
	bad := DefaultConvergentConfig()
	bad.Epsilon = 0
	if _, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), Convergent: &bad}); err == nil {
		t.Error("bad convergent config accepted")
	}
}

// --- convergent sampling ---

const phaseSrc = `
        .proc main
main:   li t0, 200000
loop:   li t1, 42
        cmplti t2, t0, 100000
        addi t0, t0, -1
        bne t0, loop
        syscall exit
        .endproc
`

// pcs: 0 li t0 | 1 li t1 (constant) | 2 cmplti (phase change at half) | 3 addi | 4 bne | 5 syscall

func TestConvergentReducesOverhead(t *testing.T) {
	prog, err := asm.Assemble(phaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth.
	fullVP, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), TrackFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, fullVP); err != nil {
		t.Fatal(err)
	}
	full := fullVP.Profile()

	cfg := ConvergentConfig{BurstLen: 1000, InitialSkip: 4000, MaxSkip: 64000, Epsilon: 0.02}
	convVP, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), Convergent: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, convVP); err != nil {
		t.Fatal(err)
	}
	conv := convVP.Profile()

	if conv.Skipped == 0 {
		t.Fatal("sampler never skipped")
	}
	duty := conv.DutyCycle()
	if duty >= 0.5 {
		t.Errorf("duty cycle = %v, want well below 0.5", duty)
	}

	// Accuracy: the constant site's estimate must be spot on.
	if got := conv.Site(1).InvTop(1); math.Abs(got-1.0) > 0.01 {
		t.Errorf("constant site estimated inv = %v, want ~1", got)
	}
	// The phase site's true invariance is 0.5; the sampled estimate
	// must be in the right region (the sampler re-arms on the drift).
	truth := full.Site(2).InvAll(1)
	if math.Abs(truth-0.5) > 1e-3 {
		t.Fatalf("phase site ground truth = %v, want 0.5", truth)
	}
	if got := conv.Site(2).InvTop(1); math.Abs(got-truth) > 0.25 {
		t.Errorf("phase site estimated inv = %v, truth %v", got, truth)
	}
}

func TestConvergentReArmsOnPhaseChange(t *testing.T) {
	prog, err := asm.Assemble(phaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConvergentConfig{BurstLen: 500, InitialSkip: 2000, MaxSkip: 32000, Epsilon: 0.02}
	vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), Convergent: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	// The phase site must have been profiled more than the constant
	// site: the invariance drift forces re-arming.
	constSite := vp.Profile().Site(1)
	phaseSite := vp.Profile().Site(2)
	if phaseSite.Exec <= constSite.Exec {
		t.Errorf("phase site profiled %d ≤ constant site %d; sampler did not re-arm",
			phaseSite.Exec, constSite.Exec)
	}
}

func TestConvStateMachine(t *testing.T) {
	cfg := ConvergentConfig{BurstLen: 10, InitialSkip: 20, MaxSkip: 40, Epsilon: 0.05}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cs := newConvState(&cfg)
	site := NewSiteStats(0, "s", DefaultTNVConfig(), false)
	sink := &sampledSink{site: site, sampler: cs}
	profile := func(n int) (profiled int) {
		before := site.Exec
		sink.ObserveBatch(repeat(9, n))
		return int(site.Exec - before)
	}
	// First burst: all 10 profiled; the first checkpoint is never
	// "converged", so profiling continues with a fresh burst.
	if got := profile(10); got != 10 {
		t.Fatalf("first burst profiled %d", got)
	}
	if !cs.profiling || cs.remaining != 10 {
		t.Fatalf("after first burst: profiling=%v remaining=%d, want continuous profiling", cs.profiling, cs.remaining)
	}
	// Second burst: invariance stable → converged → first skip is
	// InitialSkip (20).
	if got := profile(10); got != 10 {
		t.Fatalf("second burst profiled %d", got)
	}
	if cs.profiling || cs.remaining != 20 {
		t.Fatalf("after first convergence: profiling=%v remaining=%d, want skip 20", cs.profiling, cs.remaining)
	}
	// Skip 20 + burst 10 → converged again → skip doubles to 40.
	if got := profile(30); got != 10 {
		t.Fatalf("third round profiled %d", got)
	}
	if cs.remaining != 40 {
		t.Fatalf("after second convergence remaining = %d, want 40", cs.remaining)
	}
	profile(50) // skip 40 + burst 10 → doubling capped at MaxSkip 40
	if cs.remaining != 40 {
		t.Fatalf("after third convergence remaining = %d, want cap 40", cs.remaining)
	}
	if cs.checkpoints != 4 {
		t.Errorf("checkpoints = %d, want 4", cs.checkpoints)
	}
}

// ConvergentConfig.Validate error paths are covered table-driven in
// convergent_test.go.

// TestTNVSizeCap pins the upper bound on a table's size: a size the
// strict loader would refuse as a record's width is refused up front.
// Accepted, such a size used to reach the site slab, whose allocation
// of that many entries per site panicked on the run's first profiled
// value (with makeslice: len out of range at 1<<40), which in vprofd
// took the daemon down.
func TestTNVSizeCap(t *testing.T) {
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1 << 40, maxTableWidth + 1} {
		vp, err := NewValueProfiler(Options{TNV: TNVConfig{Size: size, Steady: 1, ClearInterval: 2000}})
		if err == nil {
			_, err = atom.Run(prog, nil, false, vp)
			t.Fatalf("size %d accepted; the run returned %v", size, err)
		}
		if !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Errorf("size %d: error %q", size, err)
		}
	}
	if _, err := NewValueProfiler(Options{TNV: TNVConfig{Size: maxTableWidth, Steady: 1}}); err != nil {
		t.Errorf("size at the cap refused: %v", err)
	}
}

// Validate runs exactly the check NewValueProfiler and ResetFor run:
// it refuses what they refuse, with the same error, and accepts what
// they accept.
func TestOptionsValidateMatchesProfiler(t *testing.T) {
	cc := DefaultConvergentConfig()
	for _, opts := range []Options{
		{},
		DefaultOptions(),
		{TNV: TNVConfig{Size: -1}},
		{TNV: TNVConfig{Size: maxTableWidth + 1, Steady: 1}},
		{TNV: TNVConfig{Size: 4, Steady: 5}},
		{Convergent: &ConvergentConfig{BurstLen: 10, InitialSkip: 10, MaxSkip: 5, Epsilon: 0.5}},
		{AdaptiveBudget: &AdaptivePlan{}, Convergent: &cc},
	} {
		_, want := NewValueProfiler(opts)
		got := opts.Validate()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("Validate(%+v) = %v, NewValueProfiler says %v", opts, got, want)
		}
	}
}

// TestParkDropsLastRun pins what a parked profiler still references of
// the run it profiled: nothing. The sites and the slab they came from
// belong to the profile that escaped, and a parked value buffer keeps
// no site; the buffers themselves stay for reuse.
func TestParkDropsLastRun(t *testing.T) {
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewValueProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	pr := vp.Profile()
	if len(pr.Sites) == 0 || len(vp.bufs) == 0 {
		t.Fatalf("the run left %d sites and %d value buffers, want some of each", len(pr.Sites), len(vp.bufs))
	}
	nbufs := len(vp.bufs)
	vp.Park()
	if len(vp.sites) != 0 || len(vp.bufs) != 0 || vp.seeded != nil {
		t.Errorf("parked profiler holds %d sites, %d attached buffers, seeds %v", len(vp.sites), len(vp.bufs), vp.seeded != nil)
	}
	if vp.slab.stats != nil || vp.slab.tables != nil {
		t.Error("parked profiler still holds its slab")
	}
	if len(vp.freeBufs) != nbufs {
		t.Errorf("parked profiler kept %d value buffers for reuse, want %d", len(vp.freeBufs), nbufs)
	}
	if pr.Site(1).Exec != 100 {
		t.Errorf("the escaped profile changed under Park: site 1 Exec = %d", pr.Site(1).Exec)
	}
}
