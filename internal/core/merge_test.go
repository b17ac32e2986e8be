package core

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"strings"
	"testing"
)

// --- regression: Top with non-positive k must not panic ---

func TestTopNegativeK(t *testing.T) {
	tnv := NewTNV(TNVConfig{Size: 4, Steady: 2})
	for _, v := range []int64{1, 2, 1, 3} {
		tnv.Add(v)
	}
	for _, k := range []int{-1, -100, 0} {
		if got := tnv.Top(k); len(got) != 0 {
			t.Errorf("TNV Top(%d) = %v, want empty", k, got)
		}
	}
	if got := tnv.Top(2); len(got) != 2 {
		t.Errorf("Top(2) returned %d entries", len(got))
	}

	f := NewFullProfile()
	f.Add(1)
	f.Add(1)
	f.Add(2)
	for _, k := range []int{-1, -100, 0} {
		if got := f.Top(k); len(got) != 0 {
			t.Errorf("full Top(%d) = %v, want empty", k, got)
		}
	}
	if got := f.Top(1); len(got) != 1 || got[0].Value != 1 {
		t.Errorf("full Top(1) = %v", got)
	}
}

// --- regression: Clears must count only clears that flushed entries ---

func TestClearsCountOnlyFlushes(t *testing.T) {
	cfg := TNVConfig{Size: 4, Steady: 2, ClearInterval: 10}

	// Two distinct values: the table never grows past the steady part,
	// so crossing clear intervals must not count any clears.
	tnv := NewTNV(cfg)
	for i := 0; i < 35; i++ {
		tnv.Add(int64(i % 2))
	}
	if got := tnv.Clears(); got != 0 {
		t.Errorf("steady-only table counted %d clears, want 0", got)
	}

	// Four distinct values: the clear part is populated at the interval
	// boundary, so the clear both flushes and counts.
	tnv = NewTNV(cfg)
	for i := 0; i < 10; i++ {
		tnv.Add(int64(i % 4))
	}
	if got := tnv.Clears(); got != 1 {
		t.Errorf("flushing clear counted %d, want 1", got)
	}
	if got := tnv.Len(); got != cfg.Steady {
		t.Errorf("after clear table holds %d entries, want %d", got, cfg.Steady)
	}
}

// --- record merge (MergeRecords) ---

// tableRecord is a one-site record of program "p" holding t's entries
// under table width k.
func tableRecord(t *TNVTable, k int) *ProfileRecord {
	return &ProfileRecord{Program: "p", Input: "x", K: k, Sites: []SiteRecord{
		{PC: 1, Name: "f+1", Exec: t.Updates(), Dropped: t.Dropped(), Top: t.Top(k)}}}
}

func TestTNVMergeUnion(t *testing.T) {
	cfg := TNVConfig{Size: 10, Steady: 5}
	a := NewTNV(cfg)
	for _, v := range []int64{1, 1, 1, 1, 1, 2, 2, 2} {
		a.Add(v)
	}
	b := NewTNV(cfg)
	for _, v := range []int64{1, 1, 3, 3, 3, 3, 3, 3, 3} {
		b.Add(v)
	}
	m, err := MergeRecords(tableRecord(a, cfg.Size), tableRecord(b, cfg.Size))
	if err != nil {
		t.Fatal(err)
	}
	// Values 1 and 3 tie at 7: the lower value sorts first.
	want := []TNVEntry{{Value: 1, Count: 7}, {Value: 3, Count: 7}, {Value: 2, Count: 3}}
	got := m.Sites[0].Top
	if len(got) != len(want) {
		t.Fatalf("merged entries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if m.Sites[0].Exec != 17 {
		t.Errorf("merged exec %d, want 17", m.Sites[0].Exec)
	}
}

// Truncation keeps the K highest counts, and a count tie at the cut
// keeps the lower value.
func TestTNVMergeTruncatesToSize(t *testing.T) {
	rec := func(top []TNVEntry) *ProfileRecord {
		var exec uint64
		for _, e := range top {
			exec += e.Count
		}
		return &ProfileRecord{Program: "p", K: 2, Sites: []SiteRecord{{PC: 1, Name: "f+1", Exec: exec, Top: top}}}
	}
	for _, c := range []struct {
		a, b, want []TNVEntry
	}{
		{
			a:    []TNVEntry{{Value: 1, Count: 1}, {Value: 2, Count: 1}},
			b:    []TNVEntry{{Value: 3, Count: 2}, {Value: 2, Count: 1}},
			want: []TNVEntry{{Value: 2, Count: 2}, {Value: 3, Count: 2}},
		},
		{
			a:    []TNVEntry{{Value: 4, Count: 3}, {Value: 9, Count: 1}},
			b:    []TNVEntry{{Value: 2, Count: 1}},
			want: []TNVEntry{{Value: 4, Count: 3}, {Value: 2, Count: 1}},
		},
	} {
		m, err := MergeRecords(rec(c.a), rec(c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Sites[0].Top; len(got) != 2 || got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("merging %v and %v under K=2: %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSiteMergeCounters(t *testing.T) {
	// A full, fully-steady table drops every miss, so both sides carry
	// a Dropped count.
	cfg := TNVConfig{Size: 2, Steady: 2}
	a := &Profile{K: cfg.Size, Skipped: 3, Sites: []*SiteStats{siteWith(7, "f+7", cfg, 0, 5, 5, 5, 7)}}
	b := &Profile{K: cfg.Size, Skipped: 2, Sites: []*SiteStats{siteWith(7, "f+7", cfg, 5, 0, 0, 9)}}
	m, err := MergeRecords(a.Record("p", "a"), b.Record("p", "b"))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sites[0]
	if s.Exec != 9 || s.Zeros != 3 || s.Dropped != 2 || m.Skipped != 5 {
		t.Errorf("merged exec/zeros/dropped/skipped = %d/%d/%d/%d, want 9/3/2/5", s.Exec, s.Zeros, s.Dropped, m.Skipped)
	}
	// a scored 2 LVP hits (5,5 then 5), b scored 1 (0 then 0); the
	// splice (a's last 7, b's first 5) is not seen.
	if s.LVPHits != 3 {
		t.Errorf("merged LVP hits %d, want 3", s.LVPHits)
	}
	want := []TNVEntry{{Value: 5, Count: 4}, {Value: 0, Count: 3}}
	if len(s.Top) != 2 || s.Top[0] != want[0] || s.Top[1] != want[1] {
		t.Errorf("merged top %v, want %v", s.Top, want)
	}
}

func siteWith(pc int, name string, cfg TNVConfig, vals ...int64) *SiteStats {
	s := NewSiteStats(pc, name, cfg, false)
	observeAll(s, vals...)
	return s
}

func TestProfileMergeSharedAndUnique(t *testing.T) {
	cfg := TNVConfig{Size: 10, Steady: 5}
	a := (&Profile{
		K:       cfg.Size,
		Skipped: 4,
		Sites: []*SiteStats{
			siteWith(1, "f+1", cfg, 9, 9),
			siteWith(3, "f+3", cfg, 1),
		},
	}).Record("p", "a")
	b := (&Profile{
		K:       cfg.Size,
		Skipped: 6,
		Sites: []*SiteStats{
			siteWith(2, "f+2", cfg, 5),
			siteWith(3, "f+3", cfg, 9, 1),
		},
	}).Record("p", "b")
	m, err := MergeRecords(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Skipped != 10 {
		t.Errorf("merged skipped %d, want 10", m.Skipped)
	}
	pcs := make([]int, len(m.Sites))
	for i, s := range m.Sites {
		pcs[i] = s.PC
	}
	if len(pcs) != 3 || pcs[0] != 1 || pcs[1] != 2 || pcs[2] != 3 {
		t.Fatalf("merged site pcs %v, want [1 2 3]", pcs)
	}
	if got := m.Sites[2].Exec; got != 3 {
		t.Errorf("shared site exec %d, want 3", got)
	}
	// Inputs must be untouched: a's shared site still holds only its
	// own executions.
	if a.Sites[1].Exec != 1 || len(a.Sites[1].Top) != 1 || b.Sites[1].Exec != 2 {
		t.Error("MergeRecords modified its inputs")
	}
}

func TestProfileMergeRejectsWidthMismatch(t *testing.T) {
	a := &ProfileRecord{Program: "p", K: 10}
	b := &ProfileRecord{Program: "p", K: 8}
	if _, err := MergeRecords(a, b); err == nil {
		t.Fatal("merging different table widths did not fail")
	}
	if _, err := MergeRecords(b, a); err == nil {
		t.Fatal("merging different table widths in the other order did not fail")
	}
}

// Two sites at one PC with different names come from two builds of a
// program; their counts describe different instructions and must not
// add.
func TestRecordMergeRejectsSiteNameMismatch(t *testing.T) {
	cfg := TNVConfig{Size: 10, Steady: 5}
	a := (&Profile{K: cfg.Size, Sites: []*SiteStats{siteWith(1, "f+1", cfg, 7)}}).Record("p", "a")
	b := (&Profile{K: cfg.Size, Sites: []*SiteStats{siteWith(1, "g+0", cfg, 9)}}).Record("p", "b")
	_, err := MergeRecords(a, b)
	want := `core: merging records whose site at pc 1 is named "f+1" and "g+0"`
	if err == nil || err.Error() != want {
		t.Fatalf("merging mismatched site names: err %v, want %q", err, want)
	}
}

// --- checkpoint: per-site skip counters (envelope version 1) ---

func skippedProfiler(t *testing.T) *ValueProfiler {
	t.Helper()
	cfg := TNVConfig{Size: 10, Steady: 5}
	vp, err := NewValueProfiler(Options{TNV: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s1 := siteWith(1, "f+1", cfg, 7, 7, 7)
	s1.Skipped = 11
	s2 := NewSiteStats(2, "f+2", cfg, false)
	s2.Skipped = 4 // skipped-only site: must still be checkpointed
	vp.sites[1] = s1
	vp.sites[2] = s2
	return vp
}

func TestCheckpointPersistsPerSiteSkipped(t *testing.T) {
	vp := skippedProfiler(t)
	if got := vp.Skipped(); got != 15 {
		t.Fatalf("profiler skipped %d, want 15", got)
	}
	ck, err := CheckpointOf(vp, nil, "p", "test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	ck2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bySkip := map[int]uint64{}
	for _, s := range ck2.Sites {
		bySkip[s.PC] = s.Skipped
	}
	if bySkip[1] != 11 || bySkip[2] != 4 {
		t.Errorf("restored per-site skips %v, want {1:11 2:4}", bySkip)
	}

	vp2, err := NewValueProfiler(Options{TNV: vp.opts.TNV})
	if err != nil {
		t.Fatal(err)
	}
	if err := vp2.Seed(ck2); err != nil {
		t.Fatal(err)
	}
	if got := vp2.Skipped(); got != 15 {
		t.Errorf("resumed profiler skipped %d, want 15", got)
	}
	if vp2.seedSkipped != 0 {
		t.Errorf("versioned checkpoint left unattributed baseline %d", vp2.seedSkipped)
	}
}

// reversion re-encodes a written checkpoint with a different envelope
// version (recomputing the CRC), simulating files from other writers.
func reversion(t *testing.T, ck *Checkpoint, version int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.Version = version
	env.CRC32 = crc32.ChecksumIEEE(env.Payload)
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(out)
}

func TestLegacyCheckpointLoadable(t *testing.T) {
	// A PR-1 writer recorded only the run-wide skip total. Strip the
	// version and the per-site counters and the file must still load,
	// with the total surviving as an unattributed baseline.
	vp := skippedProfiler(t)
	ck, err := CheckpointOf(vp, nil, "p", "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ck.Sites {
		ck.Sites[i].Skipped = 0
	}
	buf := reversion(t, ck, 0)
	if strings.Contains(buf.String(), `"version"`) {
		t.Fatal("version 0 should serialize as an absent field")
	}
	ck2, err := ReadCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	vp2, err := NewValueProfiler(Options{TNV: vp.opts.TNV})
	if err != nil {
		t.Fatal(err)
	}
	if err := vp2.Seed(ck2); err != nil {
		t.Fatal(err)
	}
	if got := vp2.Skipped(); got != 15 {
		t.Errorf("legacy resume skipped %d, want 15", got)
	}
	if vp2.seedSkipped != 15 {
		t.Errorf("legacy baseline %d, want 15", vp2.seedSkipped)
	}
}

func TestFutureCheckpointVersionRejected(t *testing.T) {
	vp := skippedProfiler(t)
	ck, err := CheckpointOf(vp, nil, "p", "test")
	if err != nil {
		t.Fatal(err)
	}
	buf := reversion(t, ck, checkpointVersion+1)
	if _, err := ReadCheckpoint(buf); err == nil {
		t.Fatal("future envelope version was accepted")
	}
}
