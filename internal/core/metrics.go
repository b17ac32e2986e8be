package core

import "math"

// SiteStats accumulates the per-site statistics of §III.C of the paper
// for one profiled entity (an instruction, a memory location, or a
// procedure parameter): TNV table, optional full profile, last-value
// predictability, and zero counting.
type SiteStats struct {
	PC   int // instruction index (or -1 for non-instruction sites)
	Name string

	Exec uint64 // profiled executions
	// Skipped counts executions a sampler declined to profile at this
	// site. It lives on the site (not the profiler) so that analysis
	// hooks touch only site-local state — profilers on pooled workers
	// then share nothing and run clean under the race detector.
	Skipped uint64
	LVPHits uint64 // value equalled the previous value
	Zeros   uint64

	TNV  *TNVTable
	Full *FullProfile // nil unless ground-truth tracking is on

	last    int64
	hasLast bool
}

// NewSiteStats creates stats for one site. trackFull additionally keeps
// the exact profile (expensive; used as ground truth).
func NewSiteStats(pc int, name string, cfg TNVConfig, trackFull bool) *SiteStats {
	s := &SiteStats{PC: pc, Name: name, TNV: NewTNV(cfg)}
	if trackFull {
		s.Full = NewFullProfile()
	}
	return s
}

// Observe records one executed value of the site.
func (s *SiteStats) Observe(v int64) {
	s.Exec++
	if s.hasLast && v == s.last {
		s.LVPHits++
	}
	s.last = v
	s.hasLast = true
	if v == 0 {
		s.Zeros++
	}
	s.TNV.Add(v)
	if s.Full != nil {
		s.Full.Add(v)
	}
}

// ObserveBatch records a batch of consecutively executed values, in
// execution order — the flush target of a vm.ValueBuffer. It is
// equivalent to calling Observe per value (the LVP comparison chains
// across batch boundaries through the saved last-value state) but
// runs as a single-pass, allocation-free scan: scalar counters live in
// locals across the batch, and a run of the TNV head value — the
// common case at invariant and semi-invariant sites — collapses into
// one table update covering the whole run (the LVP chain, zero count,
// and clear clock all advance by closed form). The head-run fast path
// re-checks the head after every general update, so values that bubble
// to the top mid-batch start taking it immediately. A value the table's
// signature proves absent from a full table evicts the tail in place
// without a call to Add; every other value takes Add.
func (s *SiteStats) ObserveBatch(vals []int64) {
	if len(vals) == 0 {
		return
	}
	if s.Full != nil {
		// Ground-truth mode keeps the exact per-value path; it exists
		// to measure the approximations, not to be fast.
		for _, v := range vals {
			s.Observe(v)
		}
		return
	}
	t := s.TNV
	// A mid-run periodic clear with Steady == 0 evicts the head entry
	// itself, which would break the head-run closed form; such tables
	// (test configurations) take the per-value path.
	headRuns := t.cfg.ClearInterval == 0 || t.cfg.Steady > 0
	// A full table evicts its tail on a miss only when it has a clear
	// part; a fully steady one drops the value, which Add counts.
	evicts := t.cfg.Steady < t.cfg.Size
	last, hasLast := s.last, s.hasLast
	var lvp, zeros uint64
	for i := 0; i < len(vals); {
		v := vals[i]
		if e := t.entries; headRuns && len(e) > 0 && e[0].Value == v {
			j := i + 1
			for j < len(vals) && vals[j] == v {
				j++
			}
			run := uint64(j - i)
			// Within the run every repetition after the first is a
			// last-value hit; the first hits iff it extends the chain.
			lvp += run - 1
			if hasLast && v == last {
				lvp++
			}
			if v == 0 {
				zeros += run
			}
			last, hasLast = v, true
			t.addHeadRun(run)
			i = j
			continue
		}
		if hasLast && v == last {
			lvp++
		}
		last, hasLast = v, true
		if v == 0 {
			zeros++
		}
		// A miss on a full table evicts the tail in place. A clear
		// signature bit proves v is not above the tail, the head
		// included, and a tail compare completes the proof without a
		// scan. Anything else, signature false positives included,
		// takes Add.
		if e := t.entries; len(e) == t.cfg.Size && evicts && t.sig&sigBit(v) == 0 && e[len(e)-1].Value != v {
			t.updates++
			e[len(e)-1] = TNVEntry{Value: v, Count: 1}
			t.maybeClear()
		} else {
			t.Add(v)
		}
		i++
	}
	s.Exec += uint64(len(vals))
	s.LVPHits += lvp
	s.Zeros += zeros
	s.last, s.hasLast = last, hasLast
}

// LVP returns the last-value predictability: the fraction of profiled
// executions producing the same value as the previous execution.
func (s *SiteStats) LVP() float64 {
	if s.Exec == 0 {
		return 0
	}
	return float64(s.LVPHits) / float64(s.Exec)
}

// PctZero returns the fraction of executions producing zero.
func (s *SiteStats) PctZero() float64 {
	if s.Exec == 0 {
		return 0
	}
	return float64(s.Zeros) / float64(s.Exec)
}

// InvTop returns the TNV-estimated invariance over the top k values.
func (s *SiteStats) InvTop(k int) float64 { return s.TNV.InvTop(k) }

// InvAll returns the exact invariance over the top k values, or the
// TNV estimate when no full profile was kept.
func (s *SiteStats) InvAll(k int) float64 {
	if s.Full != nil {
		return s.Full.InvAll(k)
	}
	return s.TNV.InvTop(k)
}

// Diff returns |LVP − Inv-Top(1)| for the site: the paper's Diff(L/I)
// metric, measuring how well cheap last-value hit counting stands in
// for invariance.
func (s *SiteStats) Diff() float64 {
	return math.Abs(s.LVP() - s.InvTop(1))
}

// Class is the paper's three-way classification of a site.
type Class int

const (
	Variant Class = iota
	SemiInvariant
	Invariant
)

func (c Class) String() string {
	switch c {
	case Invariant:
		return "invariant"
	case SemiInvariant:
		return "semi-invariant"
	}
	return "variant"
}

// ClassifyThresholds are the Inv-Top(1) cutoffs for classification.
type ClassifyThresholds struct {
	Invariant     float64 // Inv-Top(1) at or above → invariant
	SemiInvariant float64 // Inv-Top(1) at or above → semi-invariant
}

// DefaultThresholds classifies ≥95% top-value coverage as invariant and
// ≥50% as semi-invariant, following the paper's working definition of a
// semi-invariant variable ("holds one value most of the time").
func DefaultThresholds() ClassifyThresholds {
	return ClassifyThresholds{Invariant: 0.95, SemiInvariant: 0.50}
}

// Classify buckets the site by its top-value invariance.
func (s *SiteStats) Classify(th ClassifyThresholds) Class {
	inv := s.InvTop(1)
	switch {
	case inv >= th.Invariant:
		return Invariant
	case inv >= th.SemiInvariant:
		return SemiInvariant
	}
	return Variant
}

// WeightedMetrics aggregates site metrics weighted by execution count,
// the way the paper reports per-benchmark numbers.
type WeightedMetrics struct {
	Sites   int
	Execs   uint64
	LVP     float64
	InvTop1 float64
	InvTopN float64
	InvAll1 float64
	InvAllN float64
	PctZero float64
	Diff    float64 // weighted mean |LVP − InvTop1|
}

// Aggregate computes execution-weighted means across sites; k is the
// table width used for the Top-N metrics.
func Aggregate(sites []*SiteStats, k int) WeightedMetrics {
	var m WeightedMetrics
	var w float64
	for _, s := range sites {
		if s.Exec == 0 {
			continue
		}
		m.Sites++
		m.Execs += s.Exec
		f := float64(s.Exec)
		w += f
		m.LVP += f * s.LVP()
		m.InvTop1 += f * s.InvTop(1)
		m.InvTopN += f * s.InvTop(k)
		m.InvAll1 += f * s.InvAll(1)
		m.InvAllN += f * s.InvAll(k)
		m.PctZero += f * s.PctZero()
		m.Diff += f * s.Diff()
	}
	if w > 0 {
		m.LVP /= w
		m.InvTop1 /= w
		m.InvTopN /= w
		m.InvAll1 /= w
		m.InvAllN /= w
		m.PctZero /= w
		m.Diff /= w
	}
	return m
}
