// Package core implements the paper's contribution: value profiling
// with Top-N-Value (TNV) tables, the invariance/LVP/zero metrics, the
// full-profile ground truth, and the convergent (intelligent) sampling
// profiler that trades profiling overhead for accuracy.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// TNVConfig parameterizes a Top-N-Value table.
//
// The table keeps Size (value, count) entries ordered by count. The top
// Steady entries are never evicted; the remaining "clear part" entries
// are (a) the LFU victims when a new value misses a full table, and (b)
// flushed wholesale every ClearInterval updates so that newly hot
// values can climb into the steady part. This is the paper's LFU +
// periodic-clearing replacement policy.
type TNVConfig struct {
	Size          int    // total entries (paper default 10)
	Steady        int    // protected top entries (paper default Size/2)
	ClearInterval uint64 // updates between clears; 0 disables clearing
}

// DefaultTNVConfig is the configuration the paper's experiments used.
func DefaultTNVConfig() TNVConfig {
	return TNVConfig{Size: 10, Steady: 5, ClearInterval: 2000}
}

// validate refuses a table no record could hold: Size must lie in
// [1, maxTableWidth], the widths the strict loader accepts (a wider
// table would also reserve its entries for every site up front).
func (c TNVConfig) validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("core: TNV size %d must be positive", c.Size)
	}
	if c.Size > maxTableWidth {
		return fmt.Errorf("core: TNV size %d exceeds the maximum %d", c.Size, maxTableWidth)
	}
	if c.Steady < 0 || c.Steady > c.Size {
		return fmt.Errorf("core: TNV steady %d out of range [0,%d]", c.Steady, c.Size)
	}
	return nil
}

// TNVEntry is one (value, count) pair.
type TNVEntry struct {
	Value int64
	Count uint64
}

// TNVTable is a Top-N-Value table. The zero value is unusable; create
// with NewTNV.
type TNVTable struct {
	cfg        TNVConfig
	entries    []TNVEntry // sorted by Count descending
	sig        uint64     // sigBit of every value in entries[:len-1]; see sigBit
	updates    uint64     // values observed
	dropped    uint64     // observed values discarded by a full, fully-steady table
	sinceClear uint64
	clears     uint64
}

// sigBit maps a value to one bit of the table's signature, the 64-bit
// summary of the values held above the tail (entries[:len-1]). The
// invariant is that every such value has its bit set; extra bits are
// harmless. A clear bit therefore proves the value is not above the
// tail, so a miss is settled by one bit test and one tail compare
// instead of a scan. The bit index is the top six bits of a Fibonacci
// multiplicative hash, which depend on every bit of the value: the low
// bits alone would put all of an address-valued site's aligned values
// on a handful of bits.
func sigBit(v int64) uint64 {
	return 1 << (uint64(v) * 0x9E3779B97F4A7C15 >> 58)
}

// rebuildSig recomputes the signature exactly from the entries above
// the tail. An append ORs in one bit and an eviction, which replaces
// only the tail, needs none; every other change to the entries above
// the tail ends with a rebuild: a tail that climbs, a clear, a merge
// and a checkpoint restore.
func (t *TNVTable) rebuildSig() {
	var sig uint64
	if n := len(t.entries); n > 1 {
		for _, e := range t.entries[:n-1] {
			sig |= sigBit(e.Value)
		}
	}
	t.sig = sig
}

// NewTNV creates a table with room for tableCarve entries: a narrower
// table never fills them, and a wider one grows as distinct values
// arrive. The site slab carves min(Size, tableCarve) instead; here the
// flat reserve keeps NewTNV within the inliner's budget, so it still
// inlines into NewSiteStats. It panics on an invalid configuration
// (configurations are programmer-supplied constants).
func NewTNV(cfg TNVConfig) *TNVTable {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &TNVTable{cfg: cfg, entries: make([]TNVEntry, 0, tableCarve)}
}

// Config returns the table's configuration.
func (t *TNVTable) Config() TNVConfig { return t.cfg }

// Updates returns how many values have been added.
func (t *TNVTable) Updates() uint64 { return t.updates }

// Clears returns how many periodic clears have occurred.
func (t *TNVTable) Clears() uint64 { return t.clears }

// Dropped returns how many observed values were discarded without
// touching any entry: a miss on a full table whose entries are all
// steady (Steady == Size) has no eviction candidate, so the value is
// counted in Updates but held nowhere. The counter makes that loss
// visible to accuracy accounting — InvTop already divides by Updates,
// so dropped values depress the estimate exactly like evicted ones.
func (t *TNVTable) Dropped() uint64 { return t.dropped }

// Len returns the number of live entries.
func (t *TNVTable) Len() int { return len(t.entries) }

// Add records one observed value.
func (t *TNVTable) Add(v int64) {
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
	// keep the order. Only a value whose signature bit is set can sit
	// above the tail, so a clear bit limits the scan to the tail — most
	// misses compare one entry. Bubbling within entries[:len-1] leaves
	// the set above the tail unchanged; a tail that climbs swaps a value
	// into it, so the signature is rebuilt.
	i := 1
	if t.sig&sigBit(v) == 0 && len(e) > 1 {
		i = len(e) - 1
	}
	for ; i < len(e); i++ {
		if e[i].Value == v {
			fromTail := i == len(e)-1
			e[i].Count++
			for i > 0 && e[i-1].Count < e[i].Count {
				e[i-1], e[i] = e[i], e[i-1]
				i--
			}
			if fromTail && i < len(e)-1 {
				t.rebuildSig()
			}
			t.maybeClear()
			return
		}
	}

	// Miss: append if there is room, else replace the LFU victim in
	// the clear part (the last entry). If the whole table is steady
	// (Steady == Size) a full table has no eviction candidate: the
	// value is counted as dropped and — having touched no entry — does
	// not advance the clear clock. An append moves the old tail above
	// the new one, so its bit joins the signature; an eviction replaces
	// only the tail and leaves the signature alone.
	if n := len(t.entries); n < t.cfg.Size {
		if n > 0 {
			t.sig |= sigBit(t.entries[n-1].Value)
		}
		t.entries = append(t.entries, TNVEntry{Value: v, Count: 1})
	} else if t.cfg.Steady < t.cfg.Size {
		t.entries[n-1] = TNVEntry{Value: v, Count: 1}
	} else {
		t.dropped++
		return
	}
	t.maybeClear()
}

// addHeadRun records run consecutive observations of the current head
// value in closed form, equivalent to run sequential Add calls hitting
// the head. A head hit only ever increments the head count (no
// reordering), and the sole mid-run table event is the periodic clear,
// which truncates the tail but cannot dethrone the head while
// Steady ≥ 1 — callers guarantee that (see SiteStats.ObserveBatch).
// Multiple clear-interval crossings inside one run count at most one
// clear, exactly like the per-update path: the first crossing
// truncates to Steady entries and later crossings find nothing above
// Steady to flush.
func (t *TNVTable) addHeadRun(run uint64) {
	t.updates += run
	t.entries[0].Count += run
	if t.cfg.ClearInterval == 0 {
		return
	}
	total := t.sinceClear + run
	if total >= t.cfg.ClearInterval {
		t.clear()
	}
	t.sinceClear = total % t.cfg.ClearInterval
}

// maybeClear advances the periodic-clear clock by one update and, when
// the interval elapses, flushes the clear part. Callers invoke it only
// for updates that touched an entry (hit, insert, or evict-replace):
// a dropped update changed nothing, so letting it tick the clock would
// misstate the eviction pressure the clear cadence is meant to track.
func (t *TNVTable) maybeClear() {
	if t.cfg.ClearInterval == 0 {
		return
	}
	t.sinceClear++
	if t.sinceClear >= t.cfg.ClearInterval {
		t.clear()
	}
}

// clear restarts the clear clock and flushes the clear part, rebuilding
// the signature over the steady entries that remain. Only a clear that
// actually flushes entries counts: a table still within its steady part
// has nothing to evict, and counting the no-op would make Clears()
// overreport clearing activity. It runs once per ClearInterval updates;
// keeping it out of line keeps maybeClear small enough to inline into
// every update path.
//
//go:noinline
func (t *TNVTable) clear() {
	t.sinceClear = 0
	if len(t.entries) > t.cfg.Steady {
		t.entries = t.entries[:t.cfg.Steady]
		t.clears++
		t.rebuildSig()
	}
}

// Top returns the k most frequent entries (fewer if the table holds
// fewer, none for k ≤ 0), most frequent first.
func (t *TNVTable) Top(k int) []TNVEntry {
	if k < 0 {
		k = 0
	}
	if k > len(t.entries) {
		k = len(t.entries)
	}
	out := make([]TNVEntry, k)
	copy(out, t.entries[:k])
	return out
}

// TopValue returns the most frequent value and its count; ok is false
// for an empty table.
func (t *TNVTable) TopValue() (v int64, count uint64, ok bool) {
	if len(t.entries) == 0 {
		return 0, 0, false
	}
	return t.entries[0].Value, t.entries[0].Count, true
}

// InvTop returns the estimated invariance of the site from the table:
// the counts of the top-k surviving entries divided by all observed
// values. Counts lost to eviction and clearing make this an
// underestimate of true invariance — exactly the approximation error
// experiment E4 quantifies.
func (t *TNVTable) InvTop(k int) float64 {
	if t.updates == 0 {
		return 0
	}
	var sum uint64
	for i, e := range t.entries {
		if i >= k {
			break
		}
		sum += e.Count
	}
	return float64(sum) / float64(t.updates)
}

// String renders the table for reports: "v:c v:c ... (updates=n)".
func (t *TNVTable) String() string {
	var b strings.Builder
	for i, e := range t.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", e.Value, e.Count)
	}
	fmt.Fprintf(&b, " (updates=%d)", t.updates)
	return b.String()
}

// FullProfile is the exact value profile: every distinct value with its
// exact count. It is the paper's "full profiling" ground truth against
// which TNV accuracy is measured, and the source of the Inv-All metric.
type FullProfile struct {
	counts map[int64]uint64
	total  uint64
}

// NewFullProfile creates an empty exact profile.
func NewFullProfile() *FullProfile {
	return &FullProfile{counts: make(map[int64]uint64)}
}

// Add records one observed value.
func (f *FullProfile) Add(v int64) {
	f.counts[v]++
	f.total++
}

// Total returns the number of observed values.
func (f *FullProfile) Total() uint64 { return f.total }

// Distinct returns the number of distinct values seen.
func (f *FullProfile) Distinct() int { return len(f.counts) }

// Count returns the exact count of v.
func (f *FullProfile) Count(v int64) uint64 { return f.counts[v] }

// Top returns the k most frequent (value, count) pairs (none for
// k ≤ 0), ties broken by value for determinism.
func (f *FullProfile) Top(k int) []TNVEntry {
	if k <= 0 {
		return nil
	}
	all := make([]TNVEntry, 0, len(f.counts))
	for v, c := range f.counts {
		all = append(all, TNVEntry{Value: v, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// InvAll returns the exact invariance: the fraction of executions
// covered by the k most frequent values.
func (f *FullProfile) InvAll(k int) float64 {
	if f.total == 0 {
		return 0
	}
	var sum uint64
	for _, e := range f.Top(k) {
		sum += e.Count
	}
	return float64(sum) / float64(f.total)
}
