package difftest

import (
	"testing"

	"valueprof/internal/core"
)

// TestRefMetricsHandComputed pins the straight-line metrics to tiny
// hand-computed cases, so the oracle itself has an oracle.
func TestRefMetricsHandComputed(t *testing.T) {
	seq := []int64{7, 7, 0, 7, 3, 3}
	if got := RefLVPHits(seq); got != 2 { // 7→7 and 3→3
		t.Fatalf("RefLVPHits = %d, want 2", got)
	}
	if got := RefZeros(seq); got != 1 {
		t.Fatalf("RefZeros = %d, want 1", got)
	}
	if got := RefInvAll(seq, 1); got != 3.0/6.0 {
		t.Fatalf("RefInvAll(1) = %v, want 0.5", got)
	}
	if got := RefInvAll(seq, 2); got != 5.0/6.0 {
		t.Fatalf("RefInvAll(2) = %v, want 5/6", got)
	}
	if got := RefLVP(seq); got != 2.0/6.0 {
		t.Fatalf("RefLVP = %v, want 1/3", got)
	}
	if got, want := RefDiff(seq), RefInvAll(seq, 1)-RefLVP(seq); got != want {
		t.Fatalf("RefDiff = %v, want %v", got, want)
	}
	top := RefTop(RefCounts(seq))
	if top[0] != (RefEntry{Value: 7, Count: 3}) || top[1] != (RefEntry{Value: 3, Count: 2}) {
		t.Fatalf("RefTop order wrong: %v", top)
	}
	// Ties break by value ascending.
	tied := RefTop(RefCounts([]int64{5, 2, 2, 5}))
	if tied[0].Value != 2 || tied[1].Value != 5 {
		t.Fatalf("tie order wrong: %v", tied)
	}
	if RefInvAll(nil, 1) != 0 || RefLVP(nil) != 0 || RefPctZero(nil) != 0 {
		t.Fatal("empty-sequence metrics must be 0")
	}
}

func TestSimulateTNVClearingAndEviction(t *testing.T) {
	// Size 2, steady 1, clear every 4 updates. Walk a stream that
	// exercises hit, miss-append, miss-evict, and a real clear.
	seq := []int64{1, 1, 2, 3 /* clear fires here */, 4, 4, 4, 5}
	tab := SimulateTNV(seq, 2, 1, 4)
	// After 1,1,2: entries 1:2, 2:1. Add 3: table full → evict last
	// → 1:2, 3:1; that is update 4 → clear truncates to steady → 1:2.
	// Then 4,4,4 → 1:2, 4:3 → sorted 4:3, 1:2; update 8 → clear →
	// 4:3. Then... seq has 8 values; last is 5: arrives before the
	// second clear? Updates: 5th=4,6th=4,7th=4,8th=5 → 5 evicts 1
	// (4:3, 5:1), then sinceClear hits 4 → clear → 4:3.
	if tab.Updates != 8 || tab.Clears != 2 {
		t.Fatalf("updates/clears = %d/%d, want 8/2", tab.Updates, tab.Clears)
	}
	if len(tab.Entries) != 1 || tab.Entries[0] != (RefEntry{Value: 4, Count: 3}) {
		t.Fatalf("entries = %v, want [4:3]", tab.Entries)
	}
}

// TestSimulateConvergentHandComputed walks the burst/skip state
// machine through two tiny streams with pre-computed outcomes: a
// constant stream exercising geometric backoff, and a phase-change
// stream exercising the re-arm (skip reset) path.
func TestSimulateConvergentHandComputed(t *testing.T) {
	// Constant stream, burst 4, skips 2→4 (cap 8): profile 1-8
	// (converging at the 8th), skip 9-10, profile 11-14 (converging
	// again, skip doubles to 4), skip 15-18, profile 19-20.
	constant := make([]int64, 20)
	for i := range constant {
		constant[i] = 5
	}
	sim := SimulateConvergent(constant, 10, 5, 0, 4, 2, 8, 0.25)
	if sim.Profiled != 14 || sim.Skipped != 6 {
		t.Fatalf("constant: profiled/skipped = %d/%d, want 14/6", sim.Profiled, sim.Skipped)
	}
	if sim.LVPHits != 13 || sim.Zeros != 0 {
		t.Fatalf("constant: lvp/zeros = %d/%d, want 13/0", sim.LVPHits, sim.Zeros)
	}
	if len(sim.TNV.Entries) != 1 || sim.TNV.Entries[0] != (RefEntry{Value: 5, Count: 14}) {
		t.Fatalf("constant: entries = %v, want [5:14]", sim.TNV.Entries)
	}
	if sim.InvTop1() != 1.0 {
		t.Fatalf("constant: InvTop1 = %v, want 1", sim.InvTop1())
	}

	// Phase change 1→2, burst 2, skips 2→…: the drift at the third and
	// fourth checkpoints exceeds epsilon, re-arming continuous
	// profiling and resetting the backoff, so the final skip is
	// InitialSkip again rather than a doubled one.
	phased := []int64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	sim = SimulateConvergent(phased, 10, 5, 0, 2, 2, 8, 0.15)
	if sim.Profiled != 10 || sim.Skipped != 4 {
		t.Fatalf("phased: profiled/skipped = %d/%d, want 10/4", sim.Profiled, sim.Skipped)
	}
	if sim.LVPHits != 8 {
		t.Fatalf("phased: lvp = %d, want 8", sim.LVPHits)
	}
	want := []RefEntry{{Value: 2, Count: 6}, {Value: 1, Count: 4}}
	if len(sim.TNV.Entries) != 2 || sim.TNV.Entries[0] != want[0] || sim.TNV.Entries[1] != want[1] {
		t.Fatalf("phased: entries = %v, want %v", sim.TNV.Entries, want)
	}
}

// TestSimulateRandomEdges pins the random replay's semantics apart from
// core: the rate extremes, per-pc streams, and LVP over profiled
// values only.
func TestSimulateRandomEdges(t *testing.T) {
	seq := []int64{0, 3, 3, 0, 3, 3, 3, 0}
	// prob 1 profiles every execution: the counters are the sequence's
	// own, and the table is its plain replay.
	all := SimulateRandom(seq, 10, 5, 0, 1, 9, 4)
	if all.Profiled != 8 || all.Skipped != 0 || all.LVPHits != RefLVPHits(seq) || all.Zeros != RefZeros(seq) {
		t.Fatalf("prob 1: profiled/skipped/lvp/zeros = %d/%d/%d/%d", all.Profiled, all.Skipped, all.LVPHits, all.Zeros)
	}
	if d := SimulateTNV(seq, 10, 5, 0); len(all.TNV.Entries) != len(d.Entries) || all.TNV.Entries[0] != d.Entries[0] {
		t.Fatalf("prob 1: entries %v, plain replay %v", all.TNV.Entries, d.Entries)
	}
	// prob 0 skips every execution.
	if none := SimulateRandom(seq, 10, 5, 0, 0, 9, 4); none.Profiled != 0 || none.Skipped != 8 || none.TNV.Updates != 0 {
		t.Fatalf("prob 0: profiled/skipped/updates = %d/%d/%d", none.Profiled, none.Skipped, none.TNV.Updates)
	}
	// In between, the decisions depend on (seed, pc) and LVP chains
	// only across profiled values.
	long := make([]int64, 4000)
	for i := range long {
		long[i] = int64(i % 2)
	}
	a, b := SimulateRandom(long, 10, 5, 0, 0.5, 9, 4), SimulateRandom(long, 10, 5, 0, 0.5, 9, 5)
	if a.Profiled+a.Skipped != 4000 || a.Profiled < 1800 || a.Profiled > 2200 {
		t.Fatalf("prob 0.5: profiled %d of %d", a.Profiled, a.Profiled+a.Skipped)
	}
	if a.Profiled == b.Profiled && a.LVPHits == b.LVPHits {
		t.Fatal("pcs 4 and 5 drew the same decisions")
	}
	if a.LVPHits == 0 {
		t.Fatal("alternating stream sampled at 0.5 shows no LVP hits across skipped executions")
	}
}

// TestRefTNVMatchesCoreTable is the unit-level differential check: the
// optimized TNVTable and the naive replay must agree entry-for-entry
// on randomized streams across configurations, including the
// steady==size (never evict) and clearing-off corners.
func TestRefTNVMatchesCoreTable(t *testing.T) {
	configs := []core.TNVConfig{
		{Size: 10, Steady: 5, ClearInterval: 2000},
		{Size: 4, Steady: 2, ClearInterval: 16},
		{Size: 4, Steady: 4, ClearInterval: 8},
		{Size: 3, Steady: 0, ClearInterval: 5},
		{Size: 8, Steady: 4, ClearInterval: 0},
		{Size: 1, Steady: 1, ClearInterval: 3},
	}
	rng := uint64(0x1234)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, cfg := range configs {
		for trial := 0; trial < 20; trial++ {
			tab := core.NewTNV(cfg)
			ref := &RefTNV{Size: cfg.Size, Steady: cfg.Steady, ClearInterval: cfg.ClearInterval}
			n := 50 + int(next()%500)
			vals := 2 + int(next()%12) // small domains force hits and ties
			for i := 0; i < n; i++ {
				v := int64(next() % uint64(vals))
				tab.Add(v)
				ref.Add(v)
				if d := tnvDiff(tab, ref); d != "" {
					t.Fatalf("cfg %+v trial %d after %d adds: %s", cfg, trial, i+1, d)
				}
			}
		}
	}
}
