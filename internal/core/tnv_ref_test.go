package core

import (
	"fmt"
	"slices"
	"testing"
)

// This file keeps the TNV update rule that the signature replaced, as
// the reference FuzzTNVAdd compares TNVTable.Add and
// SiteStats.ObserveBatch against: every hit below the head and every
// miss scans all entries below the head. Add and maybeClear are the
// replaced code unchanged but for their receiver.

// refTNV is a TNV table with the scan-every-miss update rule.
type refTNV struct {
	cfg        TNVConfig
	entries    []TNVEntry
	updates    uint64
	dropped    uint64
	sinceClear uint64
	clears     uint64
}

// Add records one observed value.
func (t *refTNV) Add(v int64) {
	t.updates++
	e := t.entries

	// Top-1 hit first: invariant and semi-invariant sites — the common
	// case by definition — hit the head entry, and a head increment can
	// never need re-ordering, so this path does no scan and no bubble.
	if len(e) > 0 && e[0].Value == v {
		e[0].Count++
		t.maybeClear()
		return
	}

	// Hit below the head: increment and bubble toward the front to
	// keep the order.
	for i := 1; i < len(e); i++ {
		if e[i].Value == v {
			e[i].Count++
			for i > 0 && e[i-1].Count < e[i].Count {
				e[i-1], e[i] = e[i], e[i-1]
				i--
			}
			t.maybeClear()
			return
		}
	}

	// Miss: append if there is room, else replace the LFU victim in
	// the clear part (the last entry). If the whole table is steady
	// (Steady == Size) a full table has no eviction candidate: the
	// value is counted as dropped and — having touched no entry — does
	// not advance the clear clock.
	if len(t.entries) < t.cfg.Size {
		t.entries = append(t.entries, TNVEntry{Value: v, Count: 1})
	} else if t.cfg.Steady < t.cfg.Size {
		t.entries[len(t.entries)-1] = TNVEntry{Value: v, Count: 1}
	} else {
		t.dropped++
		return
	}
	t.maybeClear()
}

// maybeClear advances the periodic-clear clock by one update and, when
// the interval elapses, flushes the clear part. Callers invoke it only
// for updates that touched an entry (hit, insert, or evict-replace):
// a dropped update changed nothing, so letting it tick the clock would
// misstate the eviction pressure the clear cadence is meant to track.
func (t *refTNV) maybeClear() {
	if t.cfg.ClearInterval == 0 {
		return
	}
	t.sinceClear++
	if t.sinceClear < t.cfg.ClearInterval {
		return
	}
	t.sinceClear = 0
	// Only a clear that actually flushes entries counts: a table still
	// within its steady part has nothing to evict, and counting the
	// no-op would make Clears() overreport clearing activity.
	if len(t.entries) > t.cfg.Steady {
		t.entries = t.entries[:t.cfg.Steady]
		t.clears++
	}
}

// checkTNV fails the test unless got holds exactly want's state — the
// entries in order, updates, dropped, clears and the clear clock — and
// its signature covers every value above the tail. The failure message
// starts with where, formatted with args.
func checkTNV(t *testing.T, got *TNVTable, want *refTNV, where string, args ...any) {
	t.Helper()
	if !slices.Equal(got.entries, want.entries) || got.updates != want.updates ||
		got.dropped != want.dropped || got.clears != want.clears || got.sinceClear != want.sinceClear {
		t.Fatalf("%s: table %v updates=%d dropped=%d clears=%d sinceClear=%d, reference %v updates=%d dropped=%d clears=%d sinceClear=%d",
			fmt.Sprintf(where, args...), got.entries, got.updates, got.dropped, got.clears, got.sinceClear,
			want.entries, want.updates, want.dropped, want.clears, want.sinceClear)
	}
	if n := len(got.entries); n > 1 {
		for _, e := range got.entries[:n-1] {
			if got.sig&sigBit(e.Value) == 0 {
				t.Fatalf("%s: value %d above the tail has no signature bit (sig %#x)", fmt.Sprintf(where, args...), e.Value, got.sig)
			}
		}
	}
}
