package core

import (
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/isa"
)

func TestAdaptiveBudgetAllocations(t *testing.T) {
	plan := &AdaptivePlan{
		Budget: func(pc int, in isa.Inst) SiteBudget {
			switch pc {
			case 1:
				return BudgetSkip
			case 2:
				return BudgetSampled
			}
			return BudgetFull
		},
		// A tiny config so the 100-iteration loop actually reaches the
		// skip phase.
		Sampled: ConvergentConfig{BurstLen: 5, InitialSkip: 10, MaxSkip: 40, Epsilon: 0.1},
	}
	pr := profileLoop(t, Options{TNV: DefaultTNVConfig(), AdaptiveBudget: plan})

	if pr.Site(1) != nil {
		t.Error("skipped site still allocated")
	}
	sampled := pr.Site(2)
	if sampled == nil {
		t.Fatal("sampled site missing")
	}
	// Convergent sampling on a varying site must observe fewer than all
	// executions (the duty cycle backs off) and account the rest.
	if sampled.Exec+sampled.Skipped != 100 {
		t.Errorf("sampled site exec=%d skipped=%d, want 100 total", sampled.Exec, sampled.Skipped)
	}
	if sampled.Skipped == 0 {
		t.Error("sampled varying site never skipped")
	}
	full := pr.Site(3)
	if full == nil || full.Exec != 100 || full.Skipped != 0 {
		t.Errorf("full site = %+v, want 100 unskipped executions", full)
	}
}

func TestAdaptiveBudgetCountsPruned(t *testing.T) {
	plan := &AdaptivePlan{
		Budget: func(pc int, in isa.Inst) SiteBudget {
			if pc <= 1 {
				return BudgetSkip
			}
			return BudgetFull
		},
	}
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), AdaptiveBudget: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	if vp.Pruned != 2 {
		t.Errorf("Pruned = %d, want 2", vp.Pruned)
	}
	// Re-instrumenting the same profiler must not double-count.
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	if vp.Pruned != 2 {
		t.Errorf("Pruned after rerun = %d, want 2", vp.Pruned)
	}
}

func TestAdaptiveBudgetExclusiveWithSamplers(t *testing.T) {
	plan := &AdaptivePlan{}
	cc := DefaultConvergentConfig()
	if _, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), AdaptiveBudget: plan, Convergent: &cc}); err == nil {
		t.Error("AdaptiveBudget + Convergent accepted")
	}
	if _, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), AdaptiveBudget: plan,
		Sampler: func(int) Sampler { return nil }}); err == nil {
		t.Error("AdaptiveBudget + Sampler accepted")
	}
	if _, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), AdaptiveBudget: plan}); err != nil {
		t.Errorf("plain AdaptiveBudget rejected: %v", err)
	}
	bad := &AdaptivePlan{Sampled: ConvergentConfig{BurstLen: 10, InitialSkip: 10, MaxSkip: 5, Epsilon: 0.5}}
	if _, err := NewValueProfiler(Options{TNV: DefaultTNVConfig(), AdaptiveBudget: bad}); err == nil {
		t.Error("invalid Sampled config accepted")
	}
}

func TestSiteBudgetString(t *testing.T) {
	for b, want := range map[SiteBudget]string{BudgetFull: "full", BudgetSampled: "sampled", BudgetSkip: "skip"} {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}
