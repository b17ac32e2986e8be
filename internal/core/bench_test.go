package core

import (
	"math/rand"
	"testing"
)

// BenchmarkObserveBatch measures SiteStats.ObserveBatch, the path every
// profiled value takes, on a default-configured site fed 64-value
// batches (a full vm.ValueBuffer) precomputed per stream shape:
//
//   - head-runs: one value, broken about every 48 values by one of four
//     others: the invariant-site case the closed-form head run serves;
//   - distinct: every value new, so each one misses a full table and
//     evicts the tail;
//   - rotating: twelve values in random order, so most values hit an
//     entry below the head.
//
// ns/op is per batch; ns/value reports the cost per observed value.
func BenchmarkObserveBatch(b *testing.B) {
	const batches, width = 256, 64
	rng := rand.New(rand.NewSource(1))
	for _, bc := range []struct {
		name string
		next func(i int) int64
	}{
		{"head-runs", func(i int) int64 {
			if rng.Intn(48) == 0 {
				return int64(rng.Intn(4))
			}
			return 7
		}},
		{"distinct", func(i int) int64 { return 0x10000 + 8*int64(i) }},
		{"rotating", func(int) int64 { return int64(rng.Intn(12)) }},
	} {
		vals := make([]int64, batches*width)
		for i := range vals {
			vals[i] = bc.next(i)
		}
		b.Run(bc.name, func(b *testing.B) {
			s := NewSiteStats(0, "s", DefaultTNVConfig(), false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % batches * width
				s.ObserveBatch(vals[k : k+width])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/value")
		})
	}
}
