package core

import (
	"strings"
	"testing"
)

// This file pins the small read-side surface — accessors, formatters,
// and defaulting constructors — that the behavioral suites exercise
// only incidentally. They are part of the public contract (commands
// and the serve daemon print and branch on them), so the coverage gate
// should see them tested on purpose, not by luck.

func TestDefaultOptionsMatchPaperConfig(t *testing.T) {
	opts := DefaultOptions()
	if opts.TNV != DefaultTNVConfig() {
		t.Errorf("DefaultOptions TNV = %+v, want %+v", opts.TNV, DefaultTNVConfig())
	}
	if opts.Filter != nil || opts.Sampler != nil || opts.Convergent != nil || opts.TrackFull {
		t.Errorf("DefaultOptions sets non-default fields: %+v", opts)
	}
	if _, err := NewValueProfiler(opts); err != nil {
		t.Errorf("DefaultOptions rejected by NewValueProfiler: %v", err)
	}
}

func TestProfileStringSummary(t *testing.T) {
	s := NewSiteStats(4, "add", DefaultTNVConfig(), false)
	s.Observe(7)
	s.Observe(7)
	s.Observe(0)
	pr := &Profile{Sites: []*SiteStats{s}, K: DefaultTNVConfig().Size}
	out := pr.String()
	for _, want := range []string{"sites=1", "execs=3", "LVP=0.333", "duty=1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Profile.String() = %q, missing %q", out, want)
		}
	}
}

func TestSiteStatsZeroExecRates(t *testing.T) {
	s := NewSiteStats(0, "z", DefaultTNVConfig(), false)
	if s.LVP() != 0 || s.PctZero() != 0 {
		t.Errorf("zero-exec site reports LVP=%v PctZero=%v, want 0,0", s.LVP(), s.PctZero())
	}
	s.Observe(0)
	s.Observe(0)
	if s.LVP() != 0.5 || s.PctZero() != 1 {
		t.Errorf("after two zero observations LVP=%v PctZero=%v", s.LVP(), s.PctZero())
	}
}

func TestProfileRecordDutyCycle(t *testing.T) {
	empty := &ProfileRecord{}
	if d := empty.DutyCycle(); d != 1 {
		t.Errorf("empty record duty cycle %v, want 1", d)
	}
	r := &ProfileRecord{
		Skipped: 30,
		Sites:   []SiteRecord{{Exec: 50}, {Exec: 20}},
	}
	if d := r.DutyCycle(); d != 0.7 {
		t.Errorf("duty cycle %v, want 0.7", d)
	}
}

func TestLoadReportString(t *testing.T) {
	lr := &LoadReport{SitesLoaded: 5, SitesDropped: 1, SitesClamped: 2}
	if got := lr.String(); got != "loaded 5 sites (1 dropped, 2 clamped)" {
		t.Errorf("String() = %q", got)
	}
	lr.Truncated = true
	if got := lr.String(); !strings.HasSuffix(got, ", input truncated") {
		t.Errorf("truncated String() = %q", got)
	}
	if lr.Clean() {
		t.Error("damaged report claims Clean")
	}
}

func TestTNVTableConfig(t *testing.T) {
	cfg := DefaultTNVConfig()
	tab := NewTNV(cfg)
	if tab.Config() != cfg {
		t.Errorf("Config() = %+v, want %+v", tab.Config(), cfg)
	}
}

func TestCheckpointInstCount(t *testing.T) {
	ck := &Checkpoint{}
	if n := ck.InstCount(); n != 0 {
		t.Errorf("no-VM checkpoint InstCount %d, want 0", n)
	}
	ck.VM = &VMState{InstCount: 12345}
	if n := ck.InstCount(); n != 12345 {
		t.Errorf("InstCount %d, want 12345", n)
	}
}

func TestCheckpointerDefaultsAndErr(t *testing.T) {
	vp, err := NewValueProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(vp, "x.ckpt", 0, "prog", "in")
	if c.Every != DefaultCheckpointEvery {
		t.Errorf("zero interval selected %d, want DefaultCheckpointEvery", c.Every)
	}
	if c.Written() != 0 || c.Err() != nil {
		t.Errorf("fresh checkpointer Written=%d Err=%v", c.Written(), c.Err())
	}
}

// TestConvergentSamplerInterfaces drives the factory-built sampler one
// execution per NextRun and in multi-execution runs, and checks both
// describe the same phase structure.
func TestConvergentSamplerInterfaces(t *testing.T) {
	cfg := ConvergentConfig{BurstLen: 3, InitialSkip: 2, MaxSkip: 8, Epsilon: 0.5}

	// One execution per run over a perfectly invariant site: the first
	// burst's checkpoint has nothing to compare against, so the sampler
	// profiles a second burst; its checkpoint converges and the skip
	// begins.
	s := NewConvergentFactory(cfg)(0)
	site := NewSiteStats(0, "s", DefaultTNVConfig(), false)
	rec := replay(s, site, repeat(42, int(2*cfg.BurstLen)+1), 1)
	for i, take := range rec.takes[:2*cfg.BurstLen] {
		if !take {
			t.Fatalf("execution %d not profiled; expected two full bursts before convergence", i)
		}
	}
	if rec.takes[2*cfg.BurstLen] {
		t.Fatal("post-convergence execution profiled; skip phase expected")
	}

	// Multi-execution runs: a fresh sampler describes the same phase
	// structure as take-runs adding up to two bursts, with EndPhase at
	// each boundary, then a skip run.
	b := NewConvergentFactory(cfg)(0)
	site2 := NewSiteStats(0, "s2", DefaultTNVConfig(), false)
	var consumed uint64
	for consumed < 2*cfg.BurstLen {
		take, n, boundary := b.NextRun(2)
		if !take {
			t.Fatalf("skip run after %d take executions, want %d", consumed, 2*cfg.BurstLen)
		}
		if n == 0 || n > 2 {
			t.Fatalf("NextRun consumed %d, want 1..2", n)
		}
		for i := uint64(0); i < n; i++ {
			site2.Observe(42)
		}
		consumed += n
		if boundary {
			b.EndPhase(site2)
		}
	}
	if consumed != 2*cfg.BurstLen {
		t.Fatalf("batch bursts consumed %d executions, want %d", consumed, 2*cfg.BurstLen)
	}
	// After the converged boundary the skip phase begins.
	if take, _, _ := b.NextRun(1); take {
		t.Fatal("post-convergence batch run still profiling")
	}
}

func TestConvergentFactoryRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewConvergentFactory accepted an invalid config")
		}
	}()
	NewConvergentFactory(ConvergentConfig{})
}

// TestResetForReusesProfiler pins the arena reuse entry point: a reset
// profiler accepts new options, drops accumulated sites, and rejects
// invalid options without corrupting itself.
func TestResetForReusesProfiler(t *testing.T) {
	vp, err := NewValueProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := vp.ResetFor(Options{Convergent: &ConvergentConfig{}}); err == nil {
		t.Fatal("ResetFor accepted an invalid convergent config")
	}
	cc := DefaultConvergentConfig()
	if err := vp.ResetFor(Options{Convergent: &cc}); err != nil {
		t.Fatal(err)
	}
	pr := vp.Profile()
	if len(pr.Sites) != 0 {
		t.Fatalf("reset profiler still holds %d sites", len(pr.Sites))
	}
	if pr.K != DefaultTNVConfig().Size {
		t.Fatalf("reset profiler K = %d", pr.K)
	}
}
