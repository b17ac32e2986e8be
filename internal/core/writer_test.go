package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// refJSON is the encoding/json encoder WriteJSON replaced, kept as the
// reference the writer must match byte for byte.
func refJSON(r *ProfileRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// writerCases are records of every shape the writer lays out: strings
// the encoder escapes or replaces, nil and empty slices, each omitempty
// field set and unset, negative values and the extremes of each counter.
// Some of them no loader would return (invalid UTF-8, a negative
// attempt count), which the writer must still match the encoder on.
func writerCases() map[string]*ProfileRecord {
	site := func(pc int, name string, top []TNVEntry) SiteRecord {
		return SiteRecord{PC: pc, Name: name, Exec: 10, LVPHits: 4, Zeros: 2, Top: top}
	}
	return map[string]*ProfileRecord{
		"zero":         {},
		"empty slices": {Merged: []string{}, Sites: []SiteRecord{}},
		"nil and empty top": {Program: "p", Input: "i", K: 4, Sites: []SiteRecord{
			site(1, "a", nil), site(2, "b", []TNVEntry{})}},
		"every field": {Program: "p", Input: "i", K: 10, Outcome: "limit", Salvaged: true, Attempts: 3,
			Skipped: 99, Merged: []string{"p/a", "p/b:limit:salvaged"}, Sites: []SiteRecord{
				{PC: 0, Name: "main+0", Exec: 1, LVPHits: 1, Zeros: 1, Dropped: 1, Top: []TNVEntry{{Value: 0, Count: 1}}},
				{PC: 7, Name: "f+2", Exec: 30, Top: []TNVEntry{{Value: -5, Count: 20}, {Value: 5, Count: 9}}}}},
		"one of each omitempty": {K: 1, Merged: []string{"x"}, Sites: []SiteRecord{{Dropped: 2}}},
		"extremes": {Program: "p", K: math.MaxInt, Attempts: math.MinInt, Skipped: math.MaxUint64, Sites: []SiteRecord{
			{PC: math.MinInt, Exec: math.MaxUint64, LVPHits: math.MaxUint64, Zeros: math.MaxUint64, Dropped: math.MaxUint64,
				Top: []TNVEntry{{Value: math.MinInt64, Count: math.MaxUint64}, {Value: math.MaxInt64, Count: 1}, {Value: -1, Count: 0}}},
			{PC: math.MaxInt, Name: "max"}}},
		"delete is plain": {Program: "\x7f", Input: "~!#$%'()*+,-./:;=?@[]^_`{|}", K: 1},
		"negative":        {K: -3, Attempts: -1, Sites: []SiteRecord{site(-9, "neg", []TNVEntry{{Value: -10, Count: 10}})}},
		"escapes": {Program: "a\"b\\c", Input: "tab\there\nnl\x00\x1f\x7f", Outcome: "<script>&amp;</script>",
			Merged: []string{"é/ü", "  ", "a/b"}, Sites: []SiteRecord{
				site(1, "caf\xc3\xa9", nil), site(2, "bad \xff\xfe utf8", nil), site(3, "\xe2\x80", nil), site(4, "€+1", nil)}},
	}
}

// TestWriteJSONMatchesEncoder requires the writer to produce the
// encoder's bytes on every writer case, in a slice sized exactly.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for name, rec := range writerCases() {
		got, want := rec.JSON(), refJSON(rec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writer wrote\n%s\nencoder wrote\n%s", name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d bytes in a slice of capacity %d", name, len(got), cap(got))
		}
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteJSON err %v, bytes differ from the encoder's: %t", name, err, !bytes.Equal(buf.Bytes(), want))
		}
	}
}

// TestDigits checks the decimal length on both sides of every power of
// ten a uint64 holds, and at the ends of its range.
func TestDigits(t *testing.T) {
	vs := []uint64{0, math.MaxUint64}
	for _, p := range pow10 {
		vs = append(vs, p-1, p, p+1)
	}
	for _, v := range vs {
		if got, want := digits(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Errorf("digits(%d) = %d, want %d", v, got, want)
		}
	}
}

// manySiteRecord is a clean record of n sites with TNV tables of 0–10
// entries, as a suite run writes them.
func manySiteRecord(n int) *ProfileRecord {
	rec := &ProfileRecord{Program: "p", Input: "test", K: 10, Outcome: "completed"}
	for i := 0; i < n; i++ {
		s := SiteRecord{PC: 4 * i, Name: fmt.Sprintf("main+%d", 4*i), Exec: 1000, LVPHits: 600, Zeros: 20, Dropped: 3}
		for v := 0; v < i%11; v++ {
			s.Top = append(s.Top, TNVEntry{Value: int64(7*v - 20), Count: uint64(90 - v)})
		}
		rec.Sites = append(rec.Sites, s)
	}
	return rec
}

// TestWriteProfileRecordAllocs bounds the writer's allocations on
// TestReadProfileRecordAllocs's record: writing it into a bytes.Buffer
// takes at most 2, where the writer needs one, for the record's bytes.
// The buffer is reused, so its own growth is not counted; an empty one
// grows in one allocation, or two under the race detector. Like
// hookedAllocsPerRun, it is a gate the host's speed cannot move.
func TestWriteProfileRecordAllocs(t *testing.T) {
	rec := manySiteRecord(500)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(10, func() {
		buf.Reset()
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("writing a %d-site record (%d bytes) made %.0f allocations, limit 2", len(rec.Sites), buf.Len(), allocs)
	}
}

// writtenSink keeps the benchmarked writes from being optimized away.
var writtenSink []byte

// BenchmarkWriteProfileRecord times the writer against the encoder it
// replaced on TestWriteProfileRecordAllocs's record.
func BenchmarkWriteProfileRecord(b *testing.B) {
	rec := manySiteRecord(500)
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writtenSink = rec.JSON()
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writtenSink = refJSON(rec)
		}
	})
}
