// Package difftest differentially tests the optimized value profiler
// in internal/core against a deliberately naive reference
// reimplemented straight from the paper. The reference keeps the
// complete per-site value sequence (unbounded, exact) and computes
// every metric — Inv-Top(k), Inv-All(k), LVP, %zero, Diff — by
// straight-line scans over that sequence. It shares no code with
// internal/core: an LFU bookkeeping bug, a clear-interval off-by-one,
// or a merge error in the optimized path cannot cancel out here,
// because this path has no LFU, no clearing, and no merge.
//
// The harness (harness.go) runs a generated program under both
// profilers and asserts the metamorphic properties from ISSUE 5;
// cmd/vfuzz drives it over thousands of seeds and shrinks any
// divergence into the regression corpus under testdata/corpus.
package difftest

import (
	"sort"

	"valueprof/internal/atom"
	"valueprof/internal/isa"
	"valueprof/internal/vm"
)

// RefProfiler is the reference: an ATOM tool recording the complete
// value sequence of every selected instruction site.
type RefProfiler struct {
	// Filter selects instructions; nil selects every result-producing
	// one, matching core's default.
	Filter func(isa.Inst) bool
	// Seqs holds, per pc, every observed value in execution order.
	Seqs map[int][]int64
}

// NewRefProfiler creates the reference profiler.
func NewRefProfiler() *RefProfiler {
	return &RefProfiler{Seqs: make(map[int][]int64)}
}

// Instrument implements atom.Tool.
func (r *RefProfiler) Instrument(ix *atom.Instrumenter) {
	keep := r.Filter
	if keep == nil {
		keep = func(in isa.Inst) bool { return in.Op.HasDest() }
	}
	ix.ForEachInst(keep, func(pc int, _ isa.Inst) {
		ix.AddAfter(pc, func(ev *vm.Event) {
			r.Seqs[pc] = append(r.Seqs[pc], ev.Value)
		})
	})
}

// PCs returns the executed site pcs in ascending order.
func (r *RefProfiler) PCs() []int {
	pcs := make([]int, 0, len(r.Seqs))
	for pc := range r.Seqs {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return pcs
}

// ---- straight-line metrics over a value sequence ----

// RefCounts returns the exact value→count map of a sequence.
func RefCounts(seq []int64) map[int64]uint64 {
	m := make(map[int64]uint64, len(seq))
	for _, v := range seq {
		m[v]++
	}
	return m
}

// RefEntry is one (value, count) pair of the reference profile.
type RefEntry struct {
	Value int64
	Count uint64
}

// RefTop returns counts as entries sorted count-descending, ties by
// value ascending — the same determinism rule core documents for its
// exact profile.
func RefTop(counts map[int64]uint64) []RefEntry {
	out := make([]RefEntry, 0, len(counts))
	for v, c := range counts {
		out = append(out, RefEntry{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// RefTopKSum returns the total count of the k most frequent values —
// the integer numerator of Inv-All(k), comparable without float
// tolerance.
func RefTopKSum(counts map[int64]uint64, k int) uint64 {
	var sum uint64
	for i, e := range RefTop(counts) {
		if i >= k {
			break
		}
		sum += e.Count
	}
	return sum
}

// RefLVPHits counts executions whose value repeats the immediately
// preceding one — the paper's last-value predictability numerator.
func RefLVPHits(seq []int64) uint64 {
	var hits uint64
	for i := 1; i < len(seq); i++ {
		if seq[i] == seq[i-1] {
			hits++
		}
	}
	return hits
}

// RefZeros counts zero-valued executions.
func RefZeros(seq []int64) uint64 {
	var zeros uint64
	for _, v := range seq {
		if v == 0 {
			zeros++
		}
	}
	return zeros
}

// RefInvAll returns the exact invariance: the fraction of executions
// covered by the k most frequent values.
func RefInvAll(seq []int64, k int) float64 {
	if len(seq) == 0 {
		return 0
	}
	return float64(RefTopKSum(RefCounts(seq), k)) / float64(len(seq))
}

// RefLVP returns hits/executions.
func RefLVP(seq []int64) float64 {
	if len(seq) == 0 {
		return 0
	}
	return float64(RefLVPHits(seq)) / float64(len(seq))
}

// RefPctZero returns the zero fraction.
func RefPctZero(seq []int64) float64 {
	if len(seq) == 0 {
		return 0
	}
	return float64(RefZeros(seq)) / float64(len(seq))
}

// RefDiff is the paper's Diff(L/I): |LVP − Inv-All(1)|.
func RefDiff(seq []int64) float64 {
	d := RefLVP(seq) - RefInvAll(seq, 1)
	if d < 0 {
		d = -d
	}
	return d
}

// ---- naive TNV replacement-policy simulation ----

// RefTNV replays a value sequence through the paper's TNV replacement
// policy the slow, obvious way: a plain slice re-sorted after every
// hit. The optimized table bubbles entries in place and maintains the
// order incrementally; if the two ever disagree on a single entry,
// count, or clear, the optimization is wrong.
type RefTNV struct {
	Size          int
	Steady        int
	ClearInterval uint64
	Entries       []RefEntry
	Updates       uint64
	Dropped       uint64
	Clears        uint64
	sinceClear    uint64
}

// Add records one value under LFU + periodic clearing.
func (t *RefTNV) Add(v int64) {
	t.Updates++
	hit := false
	for i := range t.Entries {
		if t.Entries[i].Value == v {
			t.Entries[i].Count++
			hit = true
			break
		}
	}
	if hit {
		// A stable sort by count leaves equal-count entries in their
		// prior relative order — exactly where the optimized table's
		// strict-inequality bubble stops.
		sort.SliceStable(t.Entries, func(i, j int) bool {
			return t.Entries[i].Count > t.Entries[j].Count
		})
	} else if len(t.Entries) < t.Size {
		t.Entries = append(t.Entries, RefEntry{Value: v, Count: 1})
	} else if t.Steady < t.Size {
		// The whole clear part is candidate for eviction; the last
		// entry is the least frequently used.
		t.Entries[len(t.Entries)-1] = RefEntry{Value: v, Count: 1}
	} else {
		// A full, fully-steady table has no eviction candidate: the
		// value is dropped, counted, and — having touched no entry —
		// does not advance the clear clock.
		t.Dropped++
		return
	}
	if t.ClearInterval > 0 {
		t.sinceClear++
		if t.sinceClear >= t.ClearInterval {
			t.sinceClear = 0
			if len(t.Entries) > t.Steady {
				t.Entries = t.Entries[:t.Steady]
				t.Clears++
			}
		}
	}
}

// SimulateTNV replays seq through a fresh reference table.
func SimulateTNV(seq []int64, size, steady int, clearInterval uint64) *RefTNV {
	t := &RefTNV{Size: size, Steady: steady, ClearInterval: clearInterval}
	for _, v := range seq {
		t.Add(v)
	}
	return t
}

// ---- naive sampler simulations ----

// RefSampled is the outcome of replaying a value sequence through a
// naive reimplementation of a sampler: which executions get profiled
// is a deterministic function of the value stream (and, for the random
// sampler, of its seed), so the optimized sampled profiler must
// reproduce this byte-for-byte.
type RefSampled struct {
	TNV      *RefTNV
	Profiled uint64
	Skipped  uint64
	LVPHits  uint64
	Zeros    uint64
	last     int64
	hasLast  bool
}

// observe profiles one value. LVP compares against the last profiled
// value: skipped executions are never seen.
func (s *RefSampled) observe(v int64) {
	if s.hasLast && v == s.last {
		s.LVPHits++
	}
	s.last, s.hasLast = v, true
	if v == 0 {
		s.Zeros++
	}
	s.TNV.Add(v)
	s.Profiled++
}

// InvTop1 returns the table's invariance estimate.
func (s *RefSampled) InvTop1() float64 {
	if s.TNV.Updates == 0 || len(s.TNV.Entries) == 0 {
		return 0
	}
	return float64(s.TNV.Entries[0].Count) / float64(s.TNV.Updates)
}

// SimulateConvergent replays seq through the burst/skip state machine
// described in the thesis: profile bursts of burstLen executions; at
// each burst end compare the table's cumulative Inv-Top(1) against the
// previous checkpoint; a change below eps means convergence, doubling
// the following skip from initialSkip up to maxSkip, while a larger
// change re-arms continuous profiling. The convergence check runs
// before the burst's final value lands in the table, matching the
// profiler's sample-then-observe hook order.
func SimulateConvergent(seq []int64, size, steady int, clearInterval uint64,
	burstLen, initialSkip, maxSkip uint64, eps float64) *RefSampled {
	out := &RefSampled{TNV: &RefTNV{Size: size, Steady: steady, ClearInterval: clearInterval}}
	profiling := true
	remaining := burstLen
	var skip uint64
	var lastInv float64
	hasCkpt := false

	for _, v := range seq {
		if !profiling {
			remaining--
			if remaining == 0 {
				profiling = true
				remaining = burstLen
			}
			out.Skipped++
			continue
		}
		remaining--
		if remaining == 0 {
			inv := out.InvTop1()
			converged := hasCkpt && abs(inv-lastInv) < eps
			lastInv = inv
			hasCkpt = true
			if converged {
				if skip == 0 {
					skip = initialSkip
				} else {
					skip *= 2
					if skip > maxSkip {
						skip = maxSkip
					}
				}
				profiling = false
				remaining = skip
			} else {
				skip = 0
				remaining = burstLen
			}
		}
		out.observe(v)
	}
	return out
}

// SimulateRandom replays seq through the random sampler of the site at
// pc, one decision per execution: the site's xorshift64* generator is
// seeded with the splitmix64 finalizer of seed + (pc+1)·φ (φ the 64-bit
// golden ratio; a zero result is replaced by φ), and an execution is
// profiled when the high 32 bits of the step's output fall below
// prob·2³² (prob in [0, 1]).
func SimulateRandom(seq []int64, size, steady int, clearInterval uint64,
	prob float64, seed uint64, pc int) *RefSampled {
	out := &RefSampled{TNV: &RefTNV{Size: size, Steady: steady, ClearInterval: clearInterval}}
	const phi = 0x9e3779b97f4a7c15
	x := seed + uint64(pc+1)*phi
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = phi
	}
	threshold := uint64(prob * (1 << 32))
	for _, v := range seq {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if (x*2685821657736338717)>>32 >= threshold {
			out.Skipped++
			continue
		}
		out.observe(v)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
