package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/workloads"
)

// randShard builds one shard profile from random observation streams.
// Values stay in a small domain so wide tables never evict (exactness
// is then decided by the merge, not the table).
func randShard(r *rand.Rand, cfg core.TNVConfig, trackFull bool) *core.Profile {
	var sites []*core.SiteStats
	for pc := 0; pc < 12; pc++ {
		if r.Intn(4) == 0 {
			continue // shards do not all see the same sites
		}
		s := core.NewSiteStats(pc, fmt.Sprintf("f+%d", pc), cfg, trackFull)
		for i, n := 0, r.Intn(200); i < n; i++ {
			s.Observe(int64(r.Intn(8)))
		}
		sites = append(sites, s)
	}
	return &core.Profile{Sites: sites, K: cfg.Size, Skipped: uint64(r.Intn(50))}
}

// mustMerge merges or fails the test.
func mustMerge(t *testing.T, a, b *core.ProfileRecord) *core.ProfileRecord {
	t.Helper()
	m, err := core.MergeRecords(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// deepCopy copies a record down to its Top slices.
func deepCopy(r *core.ProfileRecord) *core.ProfileRecord {
	out := *r
	out.Sites = append([]core.SiteRecord(nil), r.Sites...)
	for i := range out.Sites {
		out.Sites[i].Top = append([]core.TNVEntry(nil), r.Sites[i].Top...)
	}
	return &out
}

// recordsEqual compares what two merge orders must agree on: the
// sites with their counters and TNV tables, Skipped and K. Input and
// Merged name the merge order, so they differ.
func recordsEqual(t *testing.T, label string, a, b *core.ProfileRecord) {
	t.Helper()
	if a.K != b.K || a.Skipped != b.Skipped {
		t.Fatalf("%s: K/Skipped %d/%d vs %d/%d", label, a.K, a.Skipped, b.K, b.Skipped)
	}
	if !reflect.DeepEqual(a.Sites, b.Sites) {
		t.Fatalf("%s: sites differ:\n%+v\n%+v", label, a.Sites, b.Sites)
	}
}

// With tables wide enough that nothing is evicted or cleared, merging
// is exact — so it must be commutative and associative in every
// counter and table, and leave its inputs as they were.
func TestMergeCommutativeAssociative(t *testing.T) {
	cfg := core.TNVConfig{Size: 10, Steady: 5} // domain has 8 values: no eviction
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*271 + 17))
		a := randShard(r, cfg, false).Record("p", "a")
		b := randShard(r, cfg, false).Record("p", "b")
		c := randShard(r, cfg, false).Record("p", "c")
		before := []*core.ProfileRecord{deepCopy(a), deepCopy(b), deepCopy(c)}

		recordsEqual(t, fmt.Sprintf("trial %d commutativity", trial),
			mustMerge(t, a, b), mustMerge(t, b, a))
		recordsEqual(t, fmt.Sprintf("trial %d associativity", trial),
			mustMerge(t, mustMerge(t, a, b), c),
			mustMerge(t, a, mustMerge(t, b, c)))

		// A merge's sites share the inputs' Top slices, so a write
		// through them would show here.
		for i, in := range []*core.ProfileRecord{a, b, c} {
			if !reflect.DeepEqual(in, before[i]) {
				t.Fatalf("trial %d: merging modified input %d", trial, i)
			}
		}
	}
}

// The merged TNV estimate must stay an underestimate of the truth:
// merged Inv-Top(k) never exceeds the Inv-All(k) of the shards' summed
// full profiles, even under a table that evicts and clears.
func TestMergedInvTopBelowInvAll(t *testing.T) {
	cfg := core.TNVConfig{Size: 4, Steady: 2, ClearInterval: 50} // tight: evicts and clears
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*977 + 3))
		pa, pb := randShard(r, cfg, true), randShard(r, cfg, true)
		m := mustMerge(t, pa.Record("p", "a"), pb.Record("p", "b"))
		for i := range m.Sites {
			s := &m.Sites[i]
			truth := core.NewFullProfile()
			for _, shard := range []*core.Profile{pa, pb} {
				if ss := shard.Site(s.PC); ss != nil {
					for _, e := range ss.Full.Top(ss.Full.Distinct()) {
						for n := uint64(0); n < e.Count; n++ {
							truth.Add(e.Value)
						}
					}
				}
			}
			if truth.Total() != s.Exec {
				t.Fatalf("trial %d site %s: merged exec %d, summed full profiles %d", trial, s.Name, s.Exec, truth.Total())
			}
			for _, k := range []int{1, cfg.Size} {
				if it, ia := s.InvTop(k), truth.InvAll(k); it > ia+1e-12 {
					t.Errorf("trial %d site %s: merged InvTop(%d)=%v exceeds InvAll(%d)=%v",
						trial, s.Name, k, it, k, ia)
				}
			}
		}
	}
}

// The acceptance property of sharded profiling: recording each input
// in its own shard and merging the records must equal the one
// concatenated run on every exact counter (executions, zeros), with
// LVP short by at most the unknowable splice-boundary hit and TNV
// counts never exceeding the true counts.
func TestShardedMergeEqualsConcatenatedRun(t *testing.T) {
	ws := workloads.All()
	if len(ws) < 3 {
		t.Fatalf("suite too small: %d workloads", len(ws))
	}
	for _, w := range ws[:3] {
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}

		// run profiles the inputs back to back on one profiler.
		run := func(opts core.Options, ins ...workloads.Input) *core.Profile {
			vp, err := core.NewValueProfiler(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				if _, err := atom.Run(prog, in.Args, false, vp); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, in.Name, err)
				}
			}
			return vp.Profile()
		}
		opts := core.Options{TNV: core.DefaultTNVConfig()}
		merged := mustMerge(t,
			run(opts, w.Test).Record(w.Name, w.Test.Name),
			run(opts, w.Train).Record(w.Name, w.Train.Name))
		opts.TrackFull = true
		concat := run(opts, w.Test, w.Train)

		if n := len(concat.Record(w.Name, "concat").Sites); len(merged.Sites) != n {
			t.Fatalf("%s: merged %d sites, concatenated %d", w.Name, len(merged.Sites), n)
		}
		for i := range merged.Sites {
			ms := &merged.Sites[i]
			cs := concat.Site(ms.PC)
			if cs == nil {
				t.Fatalf("%s: site %d missing from concatenated run", w.Name, ms.PC)
			}
			if ms.Exec != cs.Exec || ms.Zeros != cs.Zeros {
				t.Errorf("%s site %s: merged exec/zeros %d/%d, concatenated %d/%d",
					w.Name, ms.Name, ms.Exec, ms.Zeros, cs.Exec, cs.Zeros)
			}
			if ms.LVPHits > cs.LVPHits || cs.LVPHits-ms.LVPHits > 1 {
				t.Errorf("%s site %s: merged LVP hits %d vs concatenated %d (allowed gap ≤ 1)",
					w.Name, ms.Name, ms.LVPHits, cs.LVPHits)
			}
			for _, e := range ms.Top {
				if truth := cs.Full.Count(e.Value); e.Count > truth {
					t.Errorf("%s site %s: merged TNV count %d for value %d exceeds true count %d",
						w.Name, ms.Name, e.Count, e.Value, truth)
				}
			}
		}
	}
}
