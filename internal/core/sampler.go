package core

// Sampler decides which executions of a profiled site run the
// expensive analysis path. The convergent sampler (convergent.go) is
// the paper's contribution; PeriodicSampler, RandomSampler and
// BurstSampler are the baselines the thesis's related-work discussion
// raises when asking whether CPI-style random sampling "is sufficient
// for value profiling" (its stated open question).
//
// Decisions depend only on the observation count (and, for the
// convergent sampler, on the site's statistics at phase boundaries),
// so they are replayed over the VM's buffered value batches: at flush
// time sampledSink asks for the next homogeneous take-or-skip run.
type Sampler interface {
	// NextRun consumes up to max pending executions (max ≥ 1) and
	// reports whether they are profiled, how many were consumed
	// (1 ≤ n ≤ max), and whether the current phase's final execution
	// is among them. When boundary is set the caller must invoke
	// EndPhase — for a take run, between observing value n-1 and value
	// n (the convergence checkpoint precedes the burst's last
	// observation).
	NextRun(max uint64) (take bool, n uint64, boundary bool)
	// EndPhase performs the phase-boundary transition — the
	// convergence checkpoint for the convergent sampler, a no-op for
	// samplers whose NextRun already advanced the phase state.
	EndPhase(site *SiteStats)
}

// SamplerFactory creates the Sampler of the site at pc. A factory must
// hold no mutable state: one factory may serve many profilers at once
// (a shared core.Options on a worker pool), and sites are instrumented
// in no particular order.
type SamplerFactory func(pc int) Sampler

// sampledSink replays a site's sampler over its buffered value stream.
// It is the flush target wiring sampled sites into vm.ValueBuffer: the
// VM delivers every executed value in order, and the sink partitions
// the batch into the sampler's take/skip runs.
type sampledSink struct {
	site    *SiteStats
	sampler Sampler
}

// ObserveBatch implements vm.ValueSink.
func (k *sampledSink) ObserveBatch(vals []int64) {
	for len(vals) > 0 {
		take, n, boundary := k.sampler.NextRun(uint64(len(vals)))
		if n == 0 || n > uint64(len(vals)) {
			panic("core: sampler returned run length out of range")
		}
		if take {
			if boundary {
				k.site.ObserveBatch(vals[:n-1])
				k.sampler.EndPhase(k.site)
				k.site.ObserveBatch(vals[n-1 : n])
			} else {
				k.site.ObserveBatch(vals[:n])
			}
		} else {
			k.site.Skipped += n
			if boundary {
				k.sampler.EndPhase(k.site)
			}
		}
		vals = vals[n:]
	}
}

// NextRun implements Sampler: the remainder of the current burst or
// skip period is one homogeneous run.
func (c *convState) NextRun(max uint64) (take bool, n uint64, boundary bool) {
	n = c.remaining
	boundary = n <= max
	if !boundary {
		n = max
	}
	c.remaining -= n
	return c.profiling, n, boundary
}

// EndPhase implements Sampler: the convergence checkpoint at a burst
// boundary, or re-arming the next burst at a skip boundary.
func (c *convState) EndPhase(site *SiteStats) {
	if c.profiling {
		c.checkpoint(site)
		return
	}
	c.profiling = true
	c.remaining = c.cfg.BurstLen
}

// NewConvergentFactory returns a factory for the paper's convergent
// sampler; it panics on an invalid config (call Validate first, or go
// through profiler Options, which reject bad configs with an error).
func NewConvergentFactory(cfg ConvergentConfig) SamplerFactory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return func(int) Sampler { return newConvState(&cfg) }
}

// PeriodicSampler profiles exactly one execution out of every Every.
type PeriodicSampler struct {
	Every uint64
	n     uint64
}

// NextRun implements Sampler: Every-1 skips, then the one profiled
// execution closing the cycle.
func (p *PeriodicSampler) NextRun(max uint64) (take bool, n uint64, boundary bool) {
	if p.Every <= 1 {
		return true, max, false
	}
	rem := p.Every - 1 - p.n
	if rem == 0 {
		p.n = 0
		return true, 1, true
	}
	if rem > max {
		p.n += max
		return false, max, false
	}
	p.n += rem
	return false, rem, true
}

// EndPhase implements Sampler (NextRun already advanced the cycle
// state).
func (p *PeriodicSampler) EndPhase(*SiteStats) {}

// NewPeriodicFactory samples 1-in-every executions deterministically.
func NewPeriodicFactory(every uint64) SamplerFactory {
	if every == 0 {
		every = 1
	}
	return func(int) Sampler { return &PeriodicSampler{Every: every} }
}

// RandomSampler profiles each execution independently with a fixed
// probability, drawing one xorshift64* step per execution from its
// site's deterministic stream.
type RandomSampler struct {
	// threshold is compared against the high 32 bits of each output.
	threshold uint64
	state     uint64
	// ahead is the decision NextRun drew to find where its previous
	// run ended, not yet consumed.
	ahead, hasAhead bool
}

// draw advances the generator by one execution.
func (r *RandomSampler) draw() bool {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return (r.state*2685821657736338717)>>32 < r.threshold
}

// NextRun implements Sampler: decisions are drawn one per execution
// until one differs from the run's first (kept for the next run) or
// max are consumed. The policy has no phases, so no run ends at a
// boundary.
func (r *RandomSampler) NextRun(max uint64) (take bool, n uint64, boundary bool) {
	if r.hasAhead {
		take, r.hasAhead = r.ahead, false
	} else {
		take = r.draw()
	}
	for n = 1; n < max; n++ {
		if d := r.draw(); d != take {
			r.ahead, r.hasAhead = d, true
			break
		}
	}
	return take, n, false
}

// EndPhase implements Sampler; it is never called.
func (r *RandomSampler) EndPhase(*SiteStats) {}

// NewRandomFactory samples with the given probability. The stream of
// the site at pc is seeded from (seed, pc) alone, so a record depends
// only on the program, its input, prob and seed.
func NewRandomFactory(prob float64, seed uint64) SamplerFactory {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	threshold := uint64(prob * float64(1<<32))
	return func(pc int) Sampler {
		return &RandomSampler{threshold: threshold, state: randomStream(seed, pc)}
	}
}

// randomStream derives the non-zero generator state of the site at pc
// with the splitmix64 finalizer, so neighbouring pcs and seeds get
// unrelated streams.
func randomStream(seed uint64, pc int) uint64 {
	z := seed + uint64(pc+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// BurstSampler profiles BurstLen consecutive executions out of every
// Interval — the CPI-style fixed duty-cycle burst sampling, without the
// convergence adaptivity.
type BurstSampler struct {
	BurstLen uint64
	Interval uint64
	n        uint64
}

// NextRun implements Sampler: the remainder of the current burst (or
// of the skip tail of the interval) is one homogeneous run.
func (b *BurstSampler) NextRun(max uint64) (take bool, n uint64, boundary bool) {
	if b.Interval == 0 {
		// Degenerate direct construction: the cycle restarts every
		// execution, so the burst either always or never samples.
		return b.BurstLen > 0, max, false
	}
	burst := b.BurstLen
	if burst > b.Interval {
		burst = b.Interval
	}
	take = b.n < burst
	var rem uint64
	if take {
		rem = burst - b.n
	} else {
		rem = b.Interval - b.n
	}
	if rem > max {
		b.n += max
		return take, max, false
	}
	b.n += rem
	if b.n >= b.Interval {
		b.n = 0
	}
	return take, rem, true
}

// EndPhase implements Sampler (NextRun already advanced the cycle
// state).
func (b *BurstSampler) EndPhase(*SiteStats) {}

// NewBurstFactory samples burstLen-of-interval executions.
func NewBurstFactory(burstLen, interval uint64) SamplerFactory {
	if interval == 0 {
		interval = 1
	}
	if burstLen > interval {
		burstLen = interval
	}
	return func(int) Sampler { return &BurstSampler{BurstLen: burstLen, Interval: interval} }
}
