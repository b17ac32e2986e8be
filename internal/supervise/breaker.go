package supervise

import "sync"

// breaker is the pool's circuit breaker: after threshold consecutive
// permanently-failed jobs in one group, the group is quarantined and
// later jobs of the same group are refused without running. The count
// is job-based, not time-based, so behavior is deterministic for a
// given job order; a successful (or merely transient) job resets its
// group's count.
//
// There is deliberately no automatic half-open probe: within one batch
// a permanently-broken program stays broken, and a new batch starts
// with a fresh breaker.
type breaker struct {
	threshold int
	mu        sync.Mutex
	counts    map[string]int
	open      map[string]bool
}

func newBreaker(threshold int) *breaker {
	return &breaker{
		threshold: threshold,
		counts:    make(map[string]int),
		open:      make(map[string]bool),
	}
}

// allow reports whether a job of the given group may run.
func (b *breaker) allow(group string) bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open[group]
}

// record folds one finished job into the group's state.
func (b *breaker) record(group string, permanent bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !permanent {
		b.counts[group] = 0
		return
	}
	b.counts[group]++
	if b.counts[group] >= b.threshold {
		b.open[group] = true
	}
}
