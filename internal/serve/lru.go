package serve

// lru is a map bounded by a byte budget that evicts its least recently
// used entries to stay within it. Each entry is charged the cost its
// owner gives, so the bound is what the owner counts, not what the map
// itself takes. An lru is not safe for concurrent use: its owner holds
// a lock around every call.
type lru[K comparable, V any] struct {
	limit int64 // bytes
	used  int64
	items map[K]*lruEntry[K, V]
	// ring is the sentinel of a circular list in recency order:
	// ring.next is the most recently used entry, ring.prev the least.
	ring lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](limit int64) *lru[K, V] {
	c := &lru[K, V]{limit: limit, items: make(map[K]*lruEntry[K, V])}
	c.ring.next, c.ring.prev = &c.ring, &c.ring
	return c
}

// get returns key's value and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// add stores val under key at the given cost, replacing any entry the
// key had, and evicts least recently used entries until the total cost
// is within the limit again. An entry that alone costs more than the
// limit is not stored.
func (c *lru[K, V]) add(key K, val V, cost int64) {
	if cost > c.limit {
		return
	}
	if old, ok := c.items[key]; ok {
		c.remove(old)
	}
	for c.used+cost > c.limit {
		c.remove(c.ring.prev)
	}
	e := &lruEntry[K, V]{key: key, val: val, cost: cost}
	c.items[key] = e
	c.used += cost
	c.pushFront(e)
}

func (c *lru[K, V]) remove(e *lruEntry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.used -= e.cost
}

func (c *lru[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *lru[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = &c.ring, c.ring.next
	c.ring.next.prev = e
	c.ring.next = e
}
