package faultinject

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/depprof"
	"valueprof/internal/memprof"
	"valueprof/internal/paramprof"
	"valueprof/internal/procprof"
	"valueprof/internal/program"
	"valueprof/internal/regprof"
	"valueprof/internal/trivprof"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// loadWorkload compiles the compress benchmark — a realistic workload
// with procedures, loads, stores, and arithmetic, so every profiler
// mode has something to observe.
func loadWorkload(t *testing.T) (*program.Program, []int64, uint64) {
	t.Helper()
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Execute(prog, w.Test.Args)
	if err != nil {
		t.Fatal(err)
	}
	return prog, w.Test.Args, res.InstCount
}

func TestInjectionKindsProduceMatchingOutcomes(t *testing.T) {
	prog, input, total := loadWorkload(t)
	killAt := total / 2
	for _, kind := range []Kind{KindFault, KindCancel, KindDeadline, KindLimit} {
		inj := New(Injection{At: killAt, Kind: kind})
		res, outcome, err := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: input}, inj)
		if outcome != kind.Outcome() {
			t.Errorf("%v: outcome %v, want %v", kind, outcome, kind.Outcome())
		}
		if err == nil {
			t.Errorf("%v: nil error on killed run", kind)
		}
		if res == nil || res.InstCount != killAt {
			t.Errorf("%v: partial result %+v, want InstCount %d", kind, res, killAt)
		}
		if !res.Outcome.Partial() {
			t.Errorf("%v: result not marked partial", kind)
		}
		if len(inj.Fired()) != 1 {
			t.Errorf("%v: fired %v", kind, inj.Fired())
		}
	}
}

// TestOutOfOrderPlanFiresEarliestFirst: New takes injections in any
// order, and the earliest one kills the run — here the cancel at a
// quarter of the run, not the fault listed first at half of it.
func TestOutOfOrderPlanFiresEarliestFirst(t *testing.T) {
	prog, input, total := loadWorkload(t)
	inj := New(Injection{At: total / 2, Kind: KindFault}, Injection{At: total / 4, Kind: KindCancel})
	res, outcome, _ := atom.RunControlled(context.Background(), prog, atom.RunOptions{Input: input}, inj)
	if outcome != vm.OutcomeCancelled || res.InstCount != total/4 {
		t.Fatalf("run stopped %v at instruction %d, want cancelled at %d", outcome, res.InstCount, total/4)
	}
	if fired := inj.Fired(); len(fired) != 1 || fired[0].Kind != KindCancel {
		t.Fatalf("fired %v, want the cancel alone", fired)
	}
}

func TestSeededInjectionIsDeterministic(t *testing.T) {
	prog, input, total := loadWorkload(t)
	for seed := uint64(1); seed <= 5; seed++ {
		a := NewSeeded(seed, total-1)
		b := NewSeeded(seed, total-1)
		resA, outA, _ := atom.RunControlled(context.Background(), prog, atom.RunOptions{Input: input}, a)
		resB, outB, _ := atom.RunControlled(context.Background(), prog, atom.RunOptions{Input: input}, b)
		if resA.InstCount != resB.InstCount || outA != outB {
			t.Errorf("seed %d: runs diverge: %d/%v vs %d/%v",
				seed, resA.InstCount, outA, resB.InstCount, outB)
		}
	}
}

func inUnit(x float64) bool { return !math.IsNaN(x) && x >= 0 && x <= 1 }

// TestEveryProfilerModeDegradesGracefully kills an instrumented run at
// several points — including instruction 1 and points chosen by seed —
// and asserts each profiler mode still yields an internally consistent
// report from the executed prefix.
func TestEveryProfilerModeDegradesGracefully(t *testing.T) {
	prog, input, total := loadWorkload(t)

	modes := []struct {
		name string
		make func() (atom.Tool, func(t *testing.T, res *vm.Result))
	}{
		{"inst", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			vp, err := core.NewValueProfiler(core.Options{TNV: core.DefaultTNVConfig()})
			if err != nil {
				t.Fatal(err)
			}
			return vp, func(t *testing.T, res *vm.Result) {
				pr := vp.Profile()
				m := pr.Aggregate()
				if !inUnit(m.LVP) || !inUnit(m.InvTop1) || !inUnit(m.PctZero) {
					t.Errorf("metrics out of range: %+v", m)
				}
				if pr.Profiled() > res.InstCount {
					t.Errorf("profiled %d > executed %d", pr.Profiled(), res.InstCount)
				}
			}
		}},
		{"loads-convergent", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			cfg := core.DefaultConvergentConfig()
			vp, err := core.NewValueProfiler(core.Options{
				TNV: core.DefaultTNVConfig(), Filter: core.LoadsOnly, Convergent: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			return vp, func(t *testing.T, res *vm.Result) {
				pr := vp.Profile()
				if d := pr.DutyCycle(); !inUnit(d) {
					t.Errorf("duty cycle %v", d)
				}
				for _, s := range pr.Sites {
					if s.InvTop(1) > 1 {
						t.Errorf("site %d InvTop %v > 1", s.PC, s.InvTop(1))
					}
				}
			}
		}},
		{"mem", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			mp := memprof.New(memprof.Options{TNV: core.DefaultTNVConfig()})
			return mp, func(t *testing.T, res *vm.Result) {
				rep := mp.Report()
				byLoc, byAccess := rep.InvariantFraction(0.9)
				if len(rep.Locations) > 0 && (!inUnit(byLoc) || !inUnit(byAccess)) {
					t.Errorf("invariant fractions %v %v", byLoc, byAccess)
				}
			}
		}},
		{"param", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			pp := paramprof.New(paramprof.Options{TNV: core.DefaultTNVConfig()})
			return pp, func(t *testing.T, res *vm.Result) {
				for _, p := range pp.Report().Procs {
					if !inUnit(p.AllArgsInvariance()) {
						t.Errorf("proc %s tuple invariance %v", p.Name, p.AllArgsInvariance())
					}
				}
			}
		}},
		{"reg", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			rp := regprof.New(core.DefaultTNVConfig(), false)
			return rp, func(t *testing.T, res *vm.Result) {
				for _, s := range rp.Written() {
					if !inUnit(s.LVP()) || s.InvTop(1) > 1 {
						t.Errorf("reg %s out of range", s.Name)
					}
				}
			}
		}},
		{"dep", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			dp := depprof.New(depprof.DefaultOptions())
			return dp, func(t *testing.T, res *vm.Result) {
				fromStore, forwardable, dom := dp.Report().Totals()
				if !inUnit(fromStore) || !inUnit(forwardable) || !inUnit(dom) {
					t.Errorf("totals %v %v %v", fromStore, forwardable, dom)
				}
			}
		}},
		{"triv", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			tp := trivprof.New()
			return tp, func(t *testing.T, res *vm.Result) {
				frac, _, _ := tp.Report().Totals()
				if !inUnit(frac) {
					t.Errorf("trivial fraction %v", frac)
				}
			}
		}},
		{"proc", func() (atom.Tool, func(*testing.T, *vm.Result)) {
			pp := procprof.New()
			return pp, func(t *testing.T, res *vm.Result) {
				// Sorted must not panic on a half-unwound call stack,
				// and attributed cycles cannot exceed executed cycles.
				pp.Sorted()
				if pp.TotalCycles() > res.Cycles {
					t.Errorf("attributed %d > executed %d cycles", pp.TotalCycles(), res.Cycles)
				}
			}
		}},
	}

	killPoints := []uint64{1, 97, total / 3, total - 1}
	for seed := uint64(100); seed < 103; seed++ {
		killPoints = append(killPoints, 1+splitmix64(&seed)%total)
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, killAt := range killPoints {
				for _, kind := range []Kind{KindFault, KindCancel} {
					tool, check := m.make()
					inj := New(Injection{At: killAt, Kind: kind})
					res, outcome, _ := atom.RunControlled(context.Background(), prog,
						atom.RunOptions{Input: input}, tool, inj)
					if outcome != kind.Outcome() {
						t.Fatalf("killAt %d kind %v: outcome %v", killAt, kind, outcome)
					}
					check(t, res)
				}
			}
		})
	}
}

// TestPartialProfileRoundTripsStrictLoader proves a killed run's
// salvaged profile is a *valid* profile: it serializes and reloads
// through the strict validating loader with all invariants intact.
func TestPartialProfileRoundTripsStrictLoader(t *testing.T) {
	prog, input, total := loadWorkload(t)
	for seed := uint64(0); seed < 8; seed++ {
		inj := NewSeeded(seed, total-1)
		vp, err := core.NewValueProfiler(core.Options{TNV: core.DefaultTNVConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res, outcome, _ := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: input}, vp, inj)
		if !outcome.Partial() {
			t.Fatalf("seed %d: injection did not fire (total %d)", seed, total)
		}
		rec := vp.Profile().Record("compress", "test")
		rec.Outcome = outcome.String()

		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := core.ReadProfileRecord(&buf)
		if err != nil {
			t.Fatalf("seed %d (killed at %d, %v): partial profile invalid: %v",
				seed, res.InstCount, outcome, err)
		}
		for _, s := range back.Sites {
			for k := 1; k <= back.K; k++ {
				if s.InvTop(k) > 1.0 {
					t.Fatalf("seed %d: site %d InvTop(%d) = %v > 1", seed, s.PC, k, s.InvTop(k))
				}
			}
		}
	}
}

// TestRealCancellationMechanisms exercises the organic (non-injected)
// stop paths: a pre-cancelled context, an expired deadline, and step
// limit exhaustion.
func TestRealCancellationMechanisms(t *testing.T) {
	prog, input, total := loadWorkload(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, outcome, err := atom.RunControlled(ctx, prog, atom.RunOptions{Input: input})
	if outcome != vm.OutcomeCancelled || err == nil {
		t.Errorf("cancelled ctx: outcome %v err %v", outcome, err)
	}

	res, outcome, err = atom.RunControlled(context.Background(), prog,
		atom.RunOptions{Input: input, Deadline: time.Now().Add(-time.Second), Quantum: 64})
	if outcome != vm.OutcomeDeadline || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("past deadline: outcome %v err %v", outcome, err)
	}

	limit := total / 4
	res, outcome, err = atom.RunControlled(context.Background(), prog,
		atom.RunOptions{Input: input, StepLimit: limit})
	if outcome != vm.OutcomeLimit {
		t.Errorf("step limit: outcome %v err %v", outcome, err)
	}
	var le *vm.LimitError
	if !errors.As(err, &le) || le.Limit != limit {
		t.Errorf("limit error: %v", err)
	}
	if res.InstCount != limit {
		t.Errorf("executed %d, limit %d", res.InstCount, limit)
	}

	// A cancel arriving mid-run through the injector's Bind mirrors a
	// SIGINT handler cancelling the shared context.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	inj := New(Injection{At: total / 2, Kind: KindCancel})
	inj.Bind(cancel)
	_, outcome, _ = atom.RunControlled(ctx, prog, atom.RunOptions{Input: input}, inj)
	if outcome != vm.OutcomeCancelled {
		t.Errorf("mid-run cancel: outcome %v", outcome)
	}
	if ctx.Err() == nil {
		t.Error("bound context not cancelled")
	}
}

// TestCheckpointSurvivesKillAnywhere runs with checkpointing enabled
// and kills at seeded points; whenever at least one snapshot was
// written, the sidecar file must load and validate.
func TestCheckpointSurvivesKillAnywhere(t *testing.T) {
	prog, input, total := loadWorkload(t)
	every := total / 20
	if every == 0 {
		every = 1
	}
	for seed := uint64(0); seed < 6; seed++ {
		path := t.TempDir() + "/run.ckpt"
		vp, err := core.NewValueProfiler(core.Options{TNV: core.DefaultTNVConfig()})
		if err != nil {
			t.Fatal(err)
		}
		ckpt := core.NewCheckpointer(vp, path, every, "compress", "test")
		inj := NewSeeded(seed, total-1)
		res, outcome, _ := atom.RunControlled(context.Background(), prog,
			atom.RunOptions{Input: input}, vp, ckpt, inj)
		if !outcome.Partial() {
			t.Fatalf("seed %d: injection did not fire", seed)
		}
		if ckpt.Written() == 0 {
			if res.InstCount > every+1 {
				t.Errorf("seed %d: ran %d insts past interval %d with no checkpoint", seed, res.InstCount, every)
			}
			continue
		}
		ck, err := core.LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("seed %d: checkpoint unreadable after kill at %d: %v", seed, res.InstCount, err)
		}
		if ck.InstCount() == 0 || ck.InstCount() > res.InstCount {
			t.Errorf("seed %d: checkpoint instcount %d, run died at %d", seed, ck.InstCount(), res.InstCount)
		}
		if len(ck.Sites) == 0 {
			t.Errorf("seed %d: checkpoint has no sites", seed)
		}
	}
}
