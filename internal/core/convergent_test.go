package core

import (
	"strings"
	"testing"
)

// TestConvergentConfigValidate walks every error path of the exported
// validator plus the accepting boundaries.
func TestConvergentConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ConvergentConfig
		wantErr string // substring of the error, "" for accept
	}{
		{"default", DefaultConvergentConfig(), ""},
		{"minimal", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 1, Epsilon: 0.5}, ""},
		{"skip-at-cap", ConvergentConfig{BurstLen: 8, InitialSkip: 64, MaxSkip: 64, Epsilon: 0.02}, ""},
		{"epsilon-near-zero", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 2, Epsilon: 1e-9}, ""},
		{"epsilon-near-one", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 2, Epsilon: 0.999}, ""},

		{"zero-burst", ConvergentConfig{BurstLen: 0, InitialSkip: 1, MaxSkip: 1, Epsilon: 0.1}, "BurstLen"},
		{"zero-initial-skip", ConvergentConfig{BurstLen: 1, InitialSkip: 0, MaxSkip: 1, Epsilon: 0.1}, "InitialSkip"},
		{"cap-below-initial", ConvergentConfig{BurstLen: 1, InitialSkip: 10, MaxSkip: 5, Epsilon: 0.1}, "MaxSkip 5 < InitialSkip 10"},
		{"zero-epsilon", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 1, Epsilon: 0}, "Epsilon"},
		{"negative-epsilon", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 1, Epsilon: -0.1}, "Epsilon"},
		{"epsilon-one", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 1, Epsilon: 1}, "Epsilon"},
		{"epsilon-above-one", ConvergentConfig{BurstLen: 1, InitialSkip: 1, MaxSkip: 1, Epsilon: 1.5}, "Epsilon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want accept", err)
				}
				// An accepted config must also be accepted end to end.
				if _, err := NewValueProfiler(Options{Convergent: &tc.cfg}); err != nil {
					t.Fatalf("NewValueProfiler rejected validated config: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted %+v, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
			if _, err := NewValueProfiler(Options{Convergent: &tc.cfg}); err == nil {
				t.Fatal("NewValueProfiler accepted a config Validate rejects")
			}
		})
	}
}

// TestConvStateRearmOnDrift drives the sampler through the full
// phase-change cycle: converge on a constant stream (skip doubling
// geometrically), drift when the value changes (re-arming continuous
// profiling and resetting the backoff), then converge again — at
// which point the skip must restart at InitialSkip, not resume the
// doubled schedule.
func TestConvStateRearmOnDrift(t *testing.T) {
	cfg := ConvergentConfig{BurstLen: 10, InitialSkip: 20, MaxSkip: 80, Epsilon: 0.05}
	cs := newConvState(&cfg)
	site := NewSiteStats(0, "s", DefaultTNVConfig(), false)
	sink := &sampledSink{site: site, sampler: cs}
	feed := func(v int64, n int) { sink.ObserveBatch(repeat(v, n)) }

	// Two constant bursts converge; a skip-20 round converges again,
	// doubling to 40.
	feed(9, 20)
	if cs.profiling || cs.skip != 20 {
		t.Fatalf("after convergence: profiling=%v skip=%d, want skipping 20", cs.profiling, cs.skip)
	}
	feed(9, 30) // 20 skipped + one burst
	if cs.profiling || cs.skip != 40 {
		t.Fatalf("after second convergence: profiling=%v skip=%d, want skip doubled to 40", cs.profiling, cs.skip)
	}

	// Phase change: sit out the 40-skip, then a burst of a new value
	// moves the invariance by far more than epsilon. The checkpoint
	// must re-arm continuous profiling and reset the backoff.
	feed(7, 50) // 40 skipped + one burst of the new value
	if !cs.profiling || cs.skip != 0 {
		t.Fatalf("after drift: profiling=%v skip=%d, want continuous profiling with backoff reset", cs.profiling, cs.skip)
	}

	// Keep feeding the new value until the invariance settles again;
	// the first post-drift convergence must use InitialSkip.
	for i := 0; i < 50 && cs.profiling; i++ {
		feed(7, 10)
	}
	if cs.profiling {
		t.Fatal("sampler never re-converged on the new constant phase")
	}
	if cs.skip != cfg.InitialSkip {
		t.Fatalf("post-drift skip = %d, want InitialSkip %d (backoff must restart)", cs.skip, cfg.InitialSkip)
	}
	if site.Skipped != 60 {
		t.Fatalf("Skipped = %d, want 60 (20 + 40)", site.Skipped)
	}
}
