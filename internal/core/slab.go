package core

// siteSlab block-allocates one profiling run's site state. Sites
// escape into the returned Profile, so they cannot be pooled across
// jobs the way VMs and buffers are; instead each run carves its
// SiteStats, TNVTable, and entry storage out of chunked slabs,
// collapsing three heap allocations per site into three per chunk.
// The slab is abandoned on ValueProfiler.Park — its storage belongs to
// the profile that escaped with it — and the next run starts a fresh
// one.
type siteSlab struct {
	stats  []SiteStats
	tables []TNVTable // each holds its carved entries until handed out
}

// siteSlabChunk is the number of sites allocated per slab refill.
const siteSlabChunk = 64

// tableCarve is the most entries a TNV table reserves up front, on the
// slab or in NewTNV. A wider table grows by append as distinct values
// arrive (Add appends while it holds fewer than Size), so what a job
// reserves follows the values it sees, not the width it asked for.
const tableCarve = 16

// newSite allocates one site from the slab. A refill carves one shared
// entry array into an empty slice of capacity min(TNV.Size,
// tableCarve) per table. A table no wider than tableCarve (the default
// width among them) never appends past its capacity; a wider one
// outgrows it by append, which reallocates out of the slab.
// Ground-truth sites (TrackFull) keep the plain allocation path: they
// carry maps and are measurement-only.
func (p *ValueProfiler) newSite(pc int, name string) *SiteStats {
	if p.opts.TrackFull {
		return NewSiteStats(pc, name, p.opts.TNV, true)
	}
	sl := &p.slab
	if len(sl.stats) == 0 {
		k := min(p.opts.TNV.Size, tableCarve)
		sl.stats = make([]SiteStats, siteSlabChunk)
		sl.tables = make([]TNVTable, siteSlabChunk)
		entries := make([]TNVEntry, siteSlabChunk*k)
		for i := range sl.tables {
			sl.tables[i].entries = entries[i*k : i*k : (i+1)*k]
		}
	}
	s, t := &sl.stats[0], &sl.tables[0]
	sl.stats, sl.tables = sl.stats[1:], sl.tables[1:]
	*t = TNVTable{cfg: p.opts.TNV, entries: t.entries}
	*s = SiteStats{PC: pc, Name: name, TNV: t}
	return s
}
