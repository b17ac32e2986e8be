package core

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// These tests pin the drop-accounting semantics: a miss on a full,
// fully-steady table (Steady == Size) has no eviction candidate, so
// the value is counted as dropped, held nowhere, and — having touched
// no entry — does not advance the periodic-clear clock.

func TestTNVDroppedOnFullySteadyTable(t *testing.T) {
	tb := NewTNV(TNVConfig{Size: 2, Steady: 2, ClearInterval: 0})
	tb.Add(1)
	tb.Add(2)
	tb.Add(1) // hit
	tb.Add(3) // miss on full fully-steady table: dropped
	tb.Add(4) // dropped
	if tb.Dropped() != 2 {
		t.Fatalf("Dropped %d, want 2", tb.Dropped())
	}
	if tb.Updates() != 5 {
		t.Fatalf("Updates %d, want 5 (dropped values still count)", tb.Updates())
	}
	if got := tb.Top(2); len(got) != 2 || got[0] != (TNVEntry{1, 2}) || got[1] != (TNVEntry{2, 1}) {
		t.Fatalf("entries %v, want [1:2 2:1]", got)
	}
	// InvTop divides by Updates, so drops depress the estimate exactly
	// like evicted counts.
	if inv := tb.InvTop(1); inv != 2.0/5.0 {
		t.Fatalf("InvTop(1) %v, want 0.4", inv)
	}

	// With an eviction candidate available (Steady < Size) nothing is
	// ever dropped.
	ev := NewTNV(TNVConfig{Size: 2, Steady: 1, ClearInterval: 0})
	for v := int64(1); v <= 5; v++ {
		ev.Add(v)
	}
	if ev.Dropped() != 0 {
		t.Fatalf("evicting table dropped %d, want 0", ev.Dropped())
	}
}

// TestDroppedDoesNotTickClearClock pins the clear-cadence fix: the
// clock counts updates that touched an entry, not raw updates. The old
// behavior ticked on every Add, so after the sequence below it would
// sit at 6 % 4 = 2; counting only the three touching updates it sits
// at 3.
func TestDroppedDoesNotTickClearClock(t *testing.T) {
	tb := NewTNV(TNVConfig{Size: 2, Steady: 2, ClearInterval: 4})
	for _, v := range []int64{1, 2, 3, 4, 5, 1} {
		tb.Add(v) // insert, insert, drop, drop, drop, hit
	}
	if tb.Dropped() != 3 {
		t.Fatalf("Dropped %d, want 3", tb.Dropped())
	}
	if tb.sinceClear != 3 {
		t.Fatalf("sinceClear %d, want 3 (per-update clock would sit at 2)", tb.sinceClear)
	}
	// The fourth touching update wraps the clock; with the table inside
	// its steady part the clear is a no-op and goes uncounted.
	tb.Add(2)
	if tb.sinceClear != 0 || tb.Clears() != 0 {
		t.Fatalf("after wrap: sinceClear %d clears %d, want 0 and 0", tb.sinceClear, tb.Clears())
	}
}

// TestObserveBatchMatchesObserve: delivering a value stream through
// ObserveBatch in arbitrary chunkings must leave a site byte-identical
// to per-value Observe calls — including last-value chains across
// batch boundaries, clear cadence, and drop counts. With the ground
// truth on (full), ObserveBatch replays each value through Observe;
// without it, it takes its own paths — head runs in closed form and
// tail evictions inline — and those rows check that they match.
func TestObserveBatchMatchesObserve(t *testing.T) {
	for _, tc := range []struct {
		cfg    TNVConfig
		full   bool
		domain int // values are drawn from [0, domain)
		n      int
	}{
		{TNVConfig{Size: 4, Steady: 2, ClearInterval: 16}, true, 9, 2000},  // eviction + clearing
		{TNVConfig{Size: 3, Steady: 3, ClearInterval: 8}, true, 9, 2000},   // fully steady: drops
		{DefaultTNVConfig(), false, 40, 8000},                              // eviction-heavy, four clears
		{TNVConfig{Size: 4, Steady: 0, ClearInterval: 16}, false, 9, 2000}, // clears flush the head: no head runs
		{TNVConfig{Size: 3, Steady: 3, ClearInterval: 8}, false, 9, 2000},  // fully steady: drops, no evictions
		{TNVConfig{Size: 4, Steady: 2, ClearInterval: 1}, false, 9, 2000},  // a clear after every update
	} {
		cfg := tc.cfg
		rng := rand.New(rand.NewSource(1))
		seq := make([]int64, tc.n)
		for i := range seq {
			seq[i] = int64(rng.Intn(tc.domain)) // small domain: plenty of repeats and zeros
		}

		one := NewSiteStats(0, "s", cfg, tc.full)
		for _, v := range seq {
			one.Observe(v)
		}
		batched := NewSiteStats(0, "s", cfg, tc.full)
		for off := 0; off < len(seq); {
			n := 1 + rng.Intn(90) // odd chunk sizes, some past ValueBufCap
			if off+n > len(seq) {
				n = len(seq) - off
			}
			batched.ObserveBatch(seq[off : off+n])
			off += n
		}

		if a, b := siteState(one), siteState(batched); !reflect.DeepEqual(a, b) {
			t.Errorf("cfg %+v full=%v: batched state %+v != per-value state %+v", cfg, tc.full, b, a)
		}
		if !tc.full {
			continue
		}
		for _, e := range one.Full.Top(one.Full.Distinct()) {
			if got := batched.Full.Count(e.Value); got != e.Count {
				t.Errorf("cfg %+v: full count of %d is %d, want %d", cfg, e.Value, got, e.Count)
			}
		}
	}
}

func droppedProfile(t *testing.T) *Profile {
	t.Helper()
	s := NewSiteStats(0, "s", TNVConfig{Size: 1, Steady: 1, ClearInterval: 0}, false)
	for _, v := range []int64{1, 1, 2, 3} {
		s.Observe(v)
	}
	if s.TNV.Dropped() != 2 {
		t.Fatalf("setup: dropped %d, want 2", s.TNV.Dropped())
	}
	return &Profile{Sites: []*SiteStats{s}, K: 1}
}

func TestRecordDroppedRoundTrip(t *testing.T) {
	rec := droppedProfile(t).Record("p", "i")
	if rec.Sites[0].Dropped != 2 {
		t.Fatalf("record dropped %d, want 2", rec.Sites[0].Dropped)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfileRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sites[0].Dropped != 2 {
		t.Fatalf("loaded dropped %d, want 2", back.Sites[0].Dropped)
	}

	// Merging shards sums the drop counts like the other counters.
	merged, err := MergeRecords(rec, back)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Sites[0].Dropped != 4 {
		t.Fatalf("merged dropped %d, want 4", merged.Sites[0].Dropped)
	}
}

func TestLoaderRejectsExcessDropped(t *testing.T) {
	rec := droppedProfile(t).Record("p", "i")
	// Exec 4, TNV holds 2: dropped may be at most 2. Claim 3.
	rec.Sites[0].Dropped = 3
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadProfileRecord(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "dropped") {
		t.Fatalf("strict loader: got %v, want dropped-count error", err)
	}
	back, rep, err := ReadProfileRecordPolicy(bytes.NewReader(raw), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("repairing loader reported a clean load")
	}
	if got := back.Sites[0].Dropped; got != 2 {
		t.Fatalf("repaired dropped %d, want clamp to 2", got)
	}
}

func TestCheckpointDroppedRoundTrip(t *testing.T) {
	cfg := TNVConfig{Size: 1, Steady: 1, ClearInterval: 0}
	vp, err := NewValueProfiler(Options{TNV: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSiteStats(0, "s", cfg, false)
	for _, v := range []int64{1, 1, 2, 3} {
		s.Observe(v)
	}
	vp.sites[0] = s

	ck, err := CheckpointOf(vp, nil, "p", "i")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sites[0].TNV.Dropped != 2 {
		t.Fatalf("checkpoint dropped %d, want 2", ck.Sites[0].TNV.Dropped)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := restoreSite(&back.Sites[0], cfg)
	if !reflect.DeepEqual(siteState(restored), siteState(s)) {
		t.Fatalf("restored site %+v != original %+v", siteState(restored), siteState(s))
	}

	// Conservation is validated on load: a drop count that cannot fit
	// under Updates alongside the entry counts is rejected.
	ck.Sites[0].TNV.Dropped = 99
	buf.Reset()
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("got %v, want dropped-invariant error", err)
	}
}

// TestCheckpointVersion1StillLoads: a pre-drop-counter file (envelope
// version 1, no dropped fields) must load with drops restored as zero.
func TestCheckpointVersion1StillLoads(t *testing.T) {
	payload := []byte(`{"program":"p","input":"i","tnv":{"Size":1,"Steady":1,"ClearInterval":0},` +
		`"skipped":0,"sites":[{"pc":0,"name":"s","exec":2,"lvpHits":1,"zeros":0,"last":1,"hasLast":true,` +
		`"tnv":{"entries":[{"Value":1,"Count":2}],"updates":2,"sinceClear":0,"clears":0}}]}`)
	env := map[string]any{
		"magic":   "VPCKPT1",
		"version": 1,
		"crc32":   crc32.ChecksumIEEE(payload),
		"payload": json.RawMessage(payload),
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sites[0].TNV.Dropped != 0 {
		t.Fatalf("v1 file restored dropped %d, want 0", ck.Sites[0].TNV.Dropped)
	}
}
