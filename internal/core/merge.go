package core

import (
	"fmt"
	"sort"
)

// This file implements the merge algebra that makes profiles from
// independent shards (parallel workers, split inputs, resumed runs)
// combinable into one profile: TNV tables, full profiles, sites, and
// whole profiles merge by count-weighted union. Merging is commutative
// and associative on all exact counters; see docs/parallel.md for
// where the merged TNV table approximates the single-run table.

// Clone returns a deep copy of the table.
func (t *TNVTable) Clone() *TNVTable {
	return &TNVTable{
		cfg:        t.cfg,
		entries:    append([]TNVEntry(nil), t.entries...),
		sig:        t.sig,
		updates:    t.updates,
		dropped:    t.dropped,
		sinceClear: t.sinceClear,
		clears:     t.clears,
	}
}

// Merge folds o into t: the count-weighted union of both tables'
// surviving entries, re-sorted by count (ties broken by value for
// determinism) and truncated to the configured size, so the steady
// part of the merged table is again its highest-count entries. The two
// tables must share one configuration — merging tables collected under
// different replacement policies would be statistically meaningless.
//
// The merged table is an approximation of the table one concatenated
// run would have built: counts already lost to eviction or clearing in
// either shard stay lost, and values each shard retained are summed
// exactly. Merged counts therefore never exceed the concatenated run's
// full counts, and InvTop stays an underestimate of true invariance.
// The update, drop, and clear counters add; the merge itself never
// triggers a clear (the combined sinceClear phase is folded modulo the
// interval).
func (t *TNVTable) Merge(o *TNVTable) error {
	if t.cfg != o.cfg {
		return fmt.Errorf("core: merging TNV tables with different configs %+v and %+v", t.cfg, o.cfg)
	}
	counts := make(map[int64]uint64, len(t.entries)+len(o.entries))
	for _, e := range t.entries {
		counts[e.Value] += e.Count
	}
	for _, e := range o.entries {
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
	if len(merged) > t.cfg.Size {
		merged = merged[:t.cfg.Size]
	}
	t.entries = merged
	t.rebuildSig()
	t.updates += o.updates
	t.dropped += o.dropped
	t.clears += o.clears
	t.sinceClear += o.sinceClear
	if t.cfg.ClearInterval > 0 {
		t.sinceClear %= t.cfg.ClearInterval
	}
	return nil
}

// Clone returns a deep copy of the exact profile.
func (f *FullProfile) Clone() *FullProfile {
	out := &FullProfile{counts: make(map[int64]uint64, len(f.counts)), total: f.total}
	for v, c := range f.counts {
		out.counts[v] = c
	}
	return out
}

// Merge folds o into f: the multiset union of the two exact profiles.
// Unlike the TNV merge this is lossless — the merged full profile is
// exactly the full profile of the concatenated value stream.
func (f *FullProfile) Merge(o *FullProfile) {
	for v, c := range o.counts {
		f.counts[v] += c
	}
	f.total += o.total
}

// Clone returns a deep copy of the site's statistics.
func (s *SiteStats) Clone() *SiteStats {
	out := *s
	out.TNV = s.TNV.Clone()
	if s.Full != nil {
		out.Full = s.Full.Clone()
	}
	return &out
}

// Merge folds o into s, treating o as a later shard of the same site:
// Exec, LVPHits, Zeros and Skipped counters sum, the TNV tables merge
// (count-weighted union), and the full profiles union exactly when
// both shards kept one (a partial ground truth would be misleading, so
// it is dropped if either side lacks it). The last-value state adopts
// o's, and the LVP hit a concatenated run might have scored at the
// splice boundary (o's first value equalling s's last) is unknowable
// from the shards — merged LVPHits can undercount the concatenated run
// by at most one per merge.
func (s *SiteStats) Merge(o *SiteStats) error {
	if s.PC != o.PC {
		return fmt.Errorf("core: merging stats of different sites pc %d and %d", s.PC, o.PC)
	}
	if s.Name != o.Name {
		return fmt.Errorf("core: merging site pc %d with conflicting names %q and %q", s.PC, s.Name, o.Name)
	}
	if err := s.TNV.Merge(o.TNV); err != nil {
		return fmt.Errorf("core: site pc %d: %w", s.PC, err)
	}
	s.Exec += o.Exec
	s.LVPHits += o.LVPHits
	s.Zeros += o.Zeros
	s.Skipped += o.Skipped
	if s.Full != nil && o.Full != nil {
		s.Full.Merge(o.Full)
	} else {
		s.Full = nil
	}
	if o.hasLast {
		s.last, s.hasLast = o.last, true
	}
	return nil
}

// Clone returns a deep copy of the profile.
func (pr *Profile) Clone() *Profile {
	out := &Profile{K: pr.K, Skipped: pr.Skipped, Pruned: pr.Pruned}
	out.Sites = make([]*SiteStats, len(pr.Sites))
	for i, s := range pr.Sites {
		out.Sites[i] = s.Clone()
	}
	return out
}

// Merge combines two profiles of the same program into a new one,
// keyed by site PC: sites present in both merge per SiteStats.Merge,
// sites present in one carry over, and the result stays sorted by PC.
// Neither input is modified. The profiles must be config-compatible —
// same table width and, per shared site, same TNV configuration and
// site name; mismatches mean the shards were not collected from the
// same program under the same policy and the merge is rejected.
//
// Skipped totals add. Pruned keeps the larger count: pruning decisions
// are per-program properties, not per-run events, so summing them
// would double-count the same pruned pcs.
func (pr *Profile) Merge(o *Profile) (*Profile, error) {
	if pr.K != o.K {
		return nil, fmt.Errorf("core: merging profiles with different table widths %d and %d", pr.K, o.K)
	}
	out := &Profile{K: pr.K, Skipped: pr.Skipped + o.Skipped, Pruned: max(pr.Pruned, o.Pruned)}
	oByPC := make(map[int]*SiteStats, len(o.Sites))
	for _, s := range o.Sites {
		oByPC[s.PC] = s
	}
	for _, s := range pr.Sites {
		m := s.Clone()
		if os, ok := oByPC[s.PC]; ok {
			delete(oByPC, s.PC)
			if err := m.Merge(os); err != nil {
				return nil, err
			}
		}
		out.Sites = append(out.Sites, m)
	}
	for _, s := range o.Sites {
		if _, ok := oByPC[s.PC]; ok {
			out.Sites = append(out.Sites, s.Clone())
		}
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].PC < out.Sites[j].PC })
	return out, nil
}
