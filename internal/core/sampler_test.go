package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
)

// recorder wraps a sampler and logs what a sampledSink asked of it:
// the take/skip decision of every execution, and where each EndPhase
// fell — executions consumed so far and the site's observation count,
// which pins the checkpoint-before-last-observation order.
type recorder struct {
	inner  Sampler
	takes  []bool
	phases [][2]uint64
}

func (r *recorder) NextRun(max uint64) (bool, uint64, bool) {
	take, n, boundary := r.inner.NextRun(max)
	for i := uint64(0); i < n; i++ {
		r.takes = append(r.takes, take)
	}
	return take, n, boundary
}

func (r *recorder) EndPhase(site *SiteStats) {
	r.phases = append(r.phases, [2]uint64{uint64(len(r.takes)), site.Exec})
	r.inner.EndPhase(site)
}

// replay feeds vals to site through a sampledSink around s, in flushes
// of at most batch values, and returns the recording.
func replay(s Sampler, site *SiteStats, vals []int64, batch int) *recorder {
	rec := &recorder{inner: s}
	sink := &sampledSink{site: site, sampler: rec}
	for len(vals) > 0 {
		n := min(batch, len(vals))
		sink.ObserveBatch(vals[:n])
		vals = vals[n:]
	}
	return rec
}

// takes returns s's decisions for its next n executions, one NextRun
// per execution.
func takes(s Sampler, n int) []bool {
	return replay(s, NewSiteStats(0, "s", DefaultTNVConfig(), false), make([]int64, n), 1).takes
}

// repeat returns n copies of v.
func repeat(v int64, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

func count(decisions []bool) (profiled int) {
	for _, take := range decisions {
		if take {
			profiled++
		}
	}
	return profiled
}

func TestPeriodicSampler(t *testing.T) {
	if profiled := count(takes(NewPeriodicFactory(4)(0), 100)); profiled != 25 {
		t.Errorf("periodic 1-in-4 profiled %d of 100", profiled)
	}
	// every=0 degrades to always.
	if !takes(NewPeriodicFactory(0)(0), 1)[0] {
		t.Error("every=0 should profile always")
	}
}

func TestRandomSamplerRate(t *testing.T) {
	f := NewRandomFactory(0.25, 42)
	s := f(0)
	n := 100000
	rate := float64(count(takes(s, n))) / float64(n)
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("random sampler rate %.4f, want ~0.25", rate)
	}
	// Distinct sites get distinct streams.
	a, b := takes(s, 1000), takes(f(1), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == 1000 {
		t.Error("two sites produced identical sampling streams")
	}
	// Deterministic across factories with the same seed.
	x, y := takes(NewRandomFactory(0.5, 7)(3), 100), takes(NewRandomFactory(0.5, 7)(3), 100)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("random sampler not deterministic for equal seeds")
		}
	}
	// Clamping.
	if !takes(NewRandomFactory(2.0, 1)(0), 1)[0] {
		t.Error("prob>1 should clamp to always")
	}
	if takes(NewRandomFactory(-1, 1)(0), 1)[0] {
		t.Error("prob<0 should clamp to never")
	}
}

func TestBurstSampler(t *testing.T) {
	pattern := takes(NewBurstFactory(3, 10)(0), 20)
	for i, want := range []bool{true, true, true, false, false, false, false, false, false, false} {
		if pattern[i] != want || pattern[i+10] != want {
			t.Fatalf("burst pattern wrong at %d: %v", i, pattern)
		}
	}
	// burstLen > interval clamps.
	if on := count(takes(NewBurstFactory(10, 4)(0), 8)); on != 8 {
		t.Errorf("clamped burst profiled %d of 8", on)
	}
}

// TestSamplerBatchSizeInvariance pins the batch-replay contract for
// every sampler: driven through a sampledSink over the same value
// stream, flushes of any size make the same take/skip decisions, end
// phases at the same points, and leave the same site state as one
// NextRun per execution. The stream has a constant phase, a varying
// phase and a zero phase, so the convergent sampler converges, backs
// off, drifts and re-arms.
func TestSamplerBatchSizeInvariance(t *testing.T) {
	var stream []int64
	for i := 0; i < 6000; i++ {
		switch {
		case i < 2000:
			stream = append(stream, 5)
		case i < 4000:
			stream = append(stream, int64(i*i%11))
		default:
			stream = append(stream, 0)
		}
	}
	conv := ConvergentConfig{BurstLen: 16, InitialSkip: 32, MaxSkip: 256, Epsilon: 0.05}
	tnv := TNVConfig{Size: 4, Steady: 2, ClearInterval: 64}
	factories := map[string]SamplerFactory{
		"periodic":   NewPeriodicFactory(7),
		"burst":      NewBurstFactory(5, 13),
		"random":     NewRandomFactory(0.3, 11),
		"convergent": NewConvergentFactory(conv),
	}
	run := func(f SamplerFactory, batch int) (*recorder, string) {
		site := NewSiteStats(3, "s", tnv, false)
		rec := replay(f(3), site, stream, batch)
		var b strings.Builder
		pr := &Profile{Sites: []*SiteStats{site}, K: tnv.Size, Skipped: site.Skipped}
		if err := pr.Record("p", "in").WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return rec, b.String()
	}
	for name, f := range factories {
		want, wantRec := run(f, 1)
		if p := count(want.takes); p == 0 || p == len(stream) {
			t.Fatalf("%s: profiled %d of %d; the stream exercises nothing", name, p, len(stream))
		}
		if name == "convergent" && len(want.phases) < 10 {
			t.Fatalf("convergent: only %d phase ends over the stream", len(want.phases))
		}
		// A phase ending on a take run ends before the run's last value
		// is observed; one ending on a skip run, after everything.
		for _, ph := range want.phases {
			consumed, observed := ph[0], ph[1]
			wantObserved := uint64(count(want.takes[:consumed]))
			if want.takes[consumed-1] {
				wantObserved--
			}
			if observed != wantObserved {
				t.Fatalf("%s: phase ended after %d executions with %d observed, want %d",
					name, consumed, observed, wantObserved)
			}
		}
		for _, k := range []int{2, 3, 64, 1 << 20} {
			got, gotRec := run(f, k)
			if !slices.Equal(got.takes, want.takes) {
				t.Errorf("%s: batch %d changed the take/skip decisions", name, k)
			}
			if !slices.Equal(got.phases, want.phases) {
				t.Errorf("%s: batch %d ended phases at %v, per-execution at %v", name, k, got.phases, want.phases)
			}
			if gotRec != wantRec {
				t.Errorf("%s: batch %d site state differs:\n got %s\nwant %s", name, k, gotRec, wantRec)
			}
		}
	}
}

func TestConvergentFactoryPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config accepted")
		}
	}()
	NewConvergentFactory(ConvergentConfig{})
}

// TestSamplerPluggedIntoProfiler drives the profiler with a periodic
// sampler over the phase program and checks duty cycle accounting.
func TestSamplerPluggedIntoProfiler(t *testing.T) {
	prog, err := asm.Assemble(phaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewValueProfiler(Options{
		TNV:     DefaultTNVConfig(),
		Sampler: NewPeriodicFactory(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	pr := vp.Profile()
	if d := pr.DutyCycle(); math.Abs(d-0.1) > 0.01 {
		t.Errorf("periodic duty cycle = %v, want ~0.1", d)
	}
	// Periodic sampling of the constant site still estimates inv = 1.
	if got := pr.Site(1).InvTop(1); got != 1.0 {
		t.Errorf("sampled constant-site inv = %v", got)
	}
	// And of the 50/50 phase site lands near 0.5.
	if got := pr.Site(2).InvTop(1); math.Abs(got-0.5) > 0.05 {
		t.Errorf("sampled phase-site inv = %v, want ~0.5", got)
	}
}

func TestConvergentTakesPrecedenceOverSampler(t *testing.T) {
	prog, err := asm.Assemble(phaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConvergentConfig()
	vp, err := NewValueProfiler(Options{
		TNV:        DefaultTNVConfig(),
		Convergent: &cfg,
		Sampler:    NewPeriodicFactory(2), // must be ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, vp); err != nil {
		t.Fatal(err)
	}
	// Convergent profiling of a converging site gives duty far from
	// the periodic 0.5.
	if d := vp.Profile().DutyCycle(); math.Abs(d-0.5) < 0.05 {
		t.Errorf("duty %v suggests the periodic sampler ran instead of convergent", d)
	}
}
