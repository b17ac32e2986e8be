package serve

import (
	"os"
	"path/filepath"
	"sync"

	"valueprof/internal/atomicio"
	"valueprof/internal/core"
)

// cache is the content-addressed profile store: completed (never
// partial) profile records, serialized once and served byte-for-byte.
// Entries live in memory and — when the server has a state directory —
// as atomically-written files under <dir>/cache/<hex>.json, which is
// what makes a finished job's result survive a restart without rerun.
type cache struct {
	mu      sync.Mutex
	dir     string // "" = memory only
	mem     map[string][]byte
	hits    uint64
	miss    uint64
	corrupt uint64 // disk entries the strict loader rejected and removed
}

func newCache(stateDir string) (*cache, error) {
	c := &cache{mem: make(map[string][]byte)}
	if stateDir != "" {
		c.dir = filepath.Join(stateDir, "cache")
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *cache) path(digest string) string {
	return filepath.Join(c.dir, digestHex(digest)+".json")
}

// get returns the cached record bytes for digest, falling back to the
// on-disk copy (see load) when the entry predates this process.
func (c *cache) get(digest string) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.mem[digest]
	c.mu.Unlock()
	if !ok && c.dir != "" {
		b, ok = c.load(digest)
	}
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	c.mu.Unlock()
	return b, ok
}

// load reads digest's disk entry and checks it with the strict record
// loader, outside c.mu so a slow read stalls no other lookup. A valid
// entry repopulates memory. A damaged one (truncated, say) is removed
// and counted as corrupt, and load reports a miss, so the caller
// recomputes the entry and its put writes a good copy.
func (c *cache) load(digest string) ([]byte, bool) {
	path := c.path(digest)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	_, err = core.ReadProfileRecord(bytesReader(b))
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.mem[digest]; ok {
		return m, true // a put landed while the file was read
	}
	if err != nil {
		// With no entry in memory no put has rewritten the file since
		// it was read, so this removes the damaged copy. If removal
		// fails, the recomputed entry's put replaces the file anyway.
		c.corrupt++
		_ = os.Remove(path)
		return nil, false
	}
	c.mem[digest] = b
	return b, true
}

// put stores the record bytes under digest. Identical re-puts are
// harmless: content addressing means the bytes cannot differ.
func (c *cache) put(digest string, rec []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[digest]; ok {
		return nil
	}
	c.mem[digest] = rec
	if c.dir != "" {
		return atomicio.WriteFileBytes(c.path(digest), rec)
	}
	return nil
}

// stats returns (entries, hits, misses).
func (c *cache) stats() (int, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem), c.hits, c.miss
}
