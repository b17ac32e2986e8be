package core

import (
	"fmt"
	"math"
	"sort"
)

// SiteRecord is the serializable form of one site's profile: the final
// TNV table plus the scalar counters. Exact per-value full profiles are
// deliberately not serialized — the paper's position is that the TNV
// table *is* the profile.
type SiteRecord struct {
	PC      int    `json:"pc"`
	Name    string `json:"name"`
	Exec    uint64 `json:"exec"`
	LVPHits uint64 `json:"lvpHits"`
	Zeros   uint64 `json:"zeros"`
	// Dropped counts profiled values the TNV table discarded without
	// touching any entry (a miss on a full, fully-steady table). They
	// are part of Exec but held by no Top entry, so the loader's
	// invariant is sum(Top counts) + Dropped ≤ Exec.
	Dropped uint64     `json:"dropped,omitempty"`
	Top     []TNVEntry `json:"top"`
}

// LVP recomputes last-value predictability from the record.
func (s *SiteRecord) LVP() float64 {
	if s.Exec == 0 {
		return 0
	}
	return float64(s.LVPHits) / float64(s.Exec)
}

// InvTop recomputes the TNV invariance estimate from the record.
func (s *SiteRecord) InvTop(k int) float64 {
	if s.Exec == 0 {
		return 0
	}
	var sum uint64
	for i, e := range s.Top {
		if i >= k {
			break
		}
		sum += e.Count
	}
	return float64(sum) / float64(s.Exec)
}

// ProfileRecord is a saved profiling run. Outcome, when non-empty,
// records how the collecting run ended ("completed", "faulted",
// "deadline", "cancelled", "limit"); a partial profile is still a
// valid profile — the TNV tables simply cover a prefix of the run.
//
// Skipped is the run's sampler-skipped execution total, persisted so
// DutyCycle survives serialization. Merged, when non-empty, is the
// provenance of a merged record: one "program/input[:outcome]" label
// per source run folded in by MergeRecords.
//
// Salvaged and Attempts are supervision provenance (see
// internal/supervise): Salvaged marks a profile a supervisor kept
// after the job's retry/wall-clock budget ran out — trustworthy but
// covering only the prefix the budget paid for — and Attempts counts
// how many runs (including retries) fed the record. Consumers that
// must not mix degraded data into exact baselines filter on Salvaged.
type ProfileRecord struct {
	Program  string       `json:"program"`
	Input    string       `json:"input"`
	K        int          `json:"k"`
	Outcome  string       `json:"outcome,omitempty"`
	Salvaged bool         `json:"salvaged,omitempty"`
	Attempts int          `json:"attempts,omitempty"`
	Skipped  uint64       `json:"skipped,omitempty"`
	Merged   []string     `json:"merged,omitempty"`
	Sites    []SiteRecord `json:"sites"`
}

// DutyCycle recomputes profiled / (profiled + skipped) from the record
// (1 when nothing was skipped and nothing profiled either).
func (r *ProfileRecord) DutyCycle() float64 {
	var profiled uint64
	for i := range r.Sites {
		profiled += r.Sites[i].Exec
	}
	total := profiled + r.Skipped
	if total == 0 {
		return 1
	}
	return float64(profiled) / float64(total)
}

// provenance returns the source-run labels of the record: its Merged
// list if it is already a merge, else its own program/input label.
func (r *ProfileRecord) provenance() []string {
	if len(r.Merged) > 0 {
		return r.Merged
	}
	lab := r.Program + "/" + r.Input
	if r.Outcome != "" {
		lab += ":" + r.Outcome
	}
	if r.Salvaged {
		lab += ":salvaged"
	}
	return []string{lab}
}

// Record converts a profile for serialization, tagging it with the
// program and input names.
func (pr *Profile) Record(programName, inputName string) *ProfileRecord {
	rec := &ProfileRecord{Program: programName, Input: inputName, K: pr.K, Skipped: pr.Skipped}
	for _, s := range pr.Sites {
		if s.Exec == 0 {
			continue
		}
		rec.Sites = append(rec.Sites, SiteRecord{
			PC:      s.PC,
			Name:    s.Name,
			Exec:    s.Exec,
			LVPHits: s.LVPHits,
			Zeros:   s.Zeros,
			Dropped: s.TNV.Dropped(),
			Top:     s.TNV.Top(pr.K),
		})
	}
	return rec
}

// RepairPolicy selects how the validating loader treats a damaged
// profile record.
type RepairPolicy int

const (
	// RepairNone rejects the whole record on the first violation.
	RepairNone RepairPolicy = iota
	// RepairDrop salvages what it can: undecodable or invalid sites
	// are dropped, out-of-range counters are clamped, duplicate-PC
	// sites are discarded, and a truncated sites array yields the
	// intact prefix. The LoadReport says what was lost.
	RepairDrop
)

// LoadReport summarizes what the validating loader salvaged, dropped,
// and clamped.
type LoadReport struct {
	SitesLoaded  int
	SitesDropped int
	SitesClamped int
	// Truncated is set when the input ended mid-record and the loaded
	// sites are a prefix of what was written.
	Truncated bool
	// Problems holds human-readable descriptions of the first few
	// violations encountered.
	Problems []string
}

const maxReportedProblems = 20

func (lr *LoadReport) addProblem(format string, args ...any) {
	if len(lr.Problems) < maxReportedProblems {
		lr.Problems = append(lr.Problems, fmt.Sprintf(format, args...))
	}
}

// Clean reports whether the record loaded without any repair.
func (lr *LoadReport) Clean() bool {
	return lr.SitesDropped == 0 && lr.SitesClamped == 0 && !lr.Truncated && len(lr.Problems) == 0
}

// String renders a one-line salvage summary.
func (lr *LoadReport) String() string {
	s := fmt.Sprintf("loaded %d sites (%d dropped, %d clamped)",
		lr.SitesLoaded, lr.SitesDropped, lr.SitesClamped)
	if lr.Truncated {
		s += ", input truncated"
	}
	return s
}

// maxTableWidth bounds the accepted TNV width; anything larger is a
// corrupt header, not a plausible configuration.
const maxTableWidth = 1 << 16

// MergeRecords combines two records of the same program into one. It
// is the only profile merge: shards of one run, the inputs of a
// multi-input job and salvaged partials of interrupted runs all fold
// through it. The records must share a program and a table width K,
// and a site at a PC both hold must carry one name in both (records of
// two builds of a program refuse to merge).
// Neither input is modified, though the result may share their Top
// slices.
//
// Keyed by site PC, a site present in both records adds its Exec,
// LVPHits, Zeros and Dropped counters, a site present in one carries
// over, and the result stays sorted by PC; the records' Skipped totals
// add. The TNV tables merge by count-weighted union: the counts of a
// value both tables hold add, and the union is sorted by count (ties
// broken toward the lower value, for determinism) and truncated to K,
// so the merged table is again its highest-count entries.
//
// The merged table approximates the one a single concatenated run
// would have built: counts either side lost to eviction or clearing
// stay lost, and values each side retained are summed exactly. A
// merged count therefore never exceeds the true count, and InvTop stays
// an underestimate of true invariance. The LVP hit a concatenated run
// might have scored at the splice (b's first value equalling a's last)
// is unknowable from the records, so merged LVPHits can be short by
// one per site per merge. See docs/parallel.md.
func MergeRecords(a, b *ProfileRecord) (*ProfileRecord, error) {
	if a.K != b.K {
		return nil, fmt.Errorf("core: merging records with different table widths %d and %d", a.K, b.K)
	}
	if a.Program != b.Program {
		return nil, fmt.Errorf("core: merging records of different programs %q and %q", a.Program, b.Program)
	}
	out := &ProfileRecord{Program: a.Program, Input: a.Input, K: a.K, Skipped: a.Skipped + b.Skipped}
	if b.Input != a.Input {
		out.Input = a.Input + "+" + b.Input
	}
	// Supervision provenance survives the merge: a merge containing any
	// salvaged shard is itself degraded, and attempt counts add like the
	// collection cost they measure.
	out.Salvaged = a.Salvaged || b.Salvaged
	out.Attempts = a.Attempts + b.Attempts
	out.Merged = append(append([]string(nil), a.provenance()...), b.provenance()...)
	bByPC := make(map[int]*SiteRecord, len(b.Sites))
	for i := range b.Sites {
		bByPC[b.Sites[i].PC] = &b.Sites[i]
	}
	for i := range a.Sites {
		sa := a.Sites[i]
		if sb, ok := bByPC[sa.PC]; ok {
			if sa.Name != sb.Name {
				return nil, fmt.Errorf("core: merging records whose site at pc %d is named %q and %q", sa.PC, sa.Name, sb.Name)
			}
			delete(bByPC, sa.PC)
			sa.Exec += sb.Exec
			sa.LVPHits += sb.LVPHits
			sa.Zeros += sb.Zeros
			sa.Dropped += sb.Dropped
			sa.Top = mergeTop(sa.Top, sb.Top, a.K)
		}
		out.Sites = append(out.Sites, sa)
	}
	for i := range b.Sites {
		if _, ok := bByPC[b.Sites[i].PC]; ok {
			out.Sites = append(out.Sites, b.Sites[i])
		}
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].PC < out.Sites[j].PC })
	return out, nil
}

func mergeTop(a, b []TNVEntry, k int) []TNVEntry {
	counts := make(map[int64]uint64, len(a)+len(b))
	for _, e := range a {
		counts[e.Value] += e.Count
	}
	for _, e := range b {
		counts[e.Value] += e.Count
	}
	merged := make([]TNVEntry, 0, len(counts))
	for v, c := range counts {
		merged = append(merged, TNVEntry{Value: v, Count: c})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return merged[i].Value < merged[j].Value
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// Comparison summarizes two runs of the same program on different
// inputs (the paper's Table V.5 / Wall-style cross-input study).
type Comparison struct {
	CommonSites int
	OnlyA       int
	OnlyB       int
	// Correlation of per-site Inv-Top(1) across the common sites.
	InvCorrelation float64
	// ClassAgreement is the fraction of common sites classified the
	// same (invariant / semi-invariant / variant) in both runs.
	ClassAgreement float64
	// TopValueAgreement is the fraction of common sites whose single
	// most frequent value is identical in both runs.
	TopValueAgreement float64
	// MeanAbsInvDiff is the mean |Inv-Top(1)_A − Inv-Top(1)_B|.
	MeanAbsInvDiff float64
}

// Compare joins two records by site pc and computes the cross-input
// stability metrics.
func Compare(a, b *ProfileRecord, th ClassifyThresholds) *Comparison {
	bByPC := make(map[int]*SiteRecord, len(b.Sites))
	for i := range b.Sites {
		bByPC[b.Sites[i].PC] = &b.Sites[i]
	}
	c := &Comparison{OnlyB: len(b.Sites)}
	var xs, ys []float64
	var agree, topAgree, absDiff float64
	for i := range a.Sites {
		sa := &a.Sites[i]
		sb, ok := bByPC[sa.PC]
		if !ok {
			c.OnlyA++
			continue
		}
		c.CommonSites++
		c.OnlyB--
		ia, ib := sa.InvTop(1), sb.InvTop(1)
		xs = append(xs, ia)
		ys = append(ys, ib)
		absDiff += math.Abs(ia - ib)
		if classOf(ia, th) == classOf(ib, th) {
			agree++
		}
		if len(sa.Top) > 0 && len(sb.Top) > 0 && sa.Top[0].Value == sb.Top[0].Value {
			topAgree++
		}
	}
	if c.CommonSites > 0 {
		n := float64(c.CommonSites)
		c.ClassAgreement = agree / n
		c.TopValueAgreement = topAgree / n
		c.MeanAbsInvDiff = absDiff / n
		c.InvCorrelation = correlation(xs, ys)
	}
	return c
}

func classOf(inv float64, th ClassifyThresholds) Class {
	switch {
	case inv >= th.Invariant:
		return Invariant
	case inv >= th.SemiInvariant:
		return SemiInvariant
	}
	return Variant
}

// correlation is Pearson's r (0 for degenerate inputs); duplicated from
// internal/stats to keep core dependency-free.
func correlation(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
