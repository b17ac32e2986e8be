package core

import (
	"fmt"
	"sort"

	"valueprof/internal/atom"
	"valueprof/internal/isa"
	"valueprof/internal/vm"
)

// Options configures a ValueProfiler.
type Options struct {
	// Filter selects which instructions to profile; nil profiles every
	// result-producing instruction (op.HasDest()). The paper's two main
	// configurations are all instructions and loads only (LoadsOnly).
	Filter func(isa.Inst) bool
	// TNV is the per-site table configuration.
	TNV TNVConfig
	// TrackFull additionally keeps exact profiles as ground truth.
	TrackFull bool
	// Convergent enables intelligent sampling; nil profiles every
	// execution of every selected instruction.
	Convergent *ConvergentConfig
	// Sampler supplies an alternative per-site sampling policy
	// (periodic, random, fixed bursts); ignored when Convergent is
	// set. Nil profiles full-time.
	Sampler SamplerFactory
	// Prune, when non-nil, vetoes individual pcs the caller has proven
	// uninteresting — typically statically-constant or unreachable
	// instructions (see internal/analysis). A pruned pc gets no site,
	// no TNV table, and no hook; the count lands in Profile.Pruned.
	// The type is a plain func so core needs no analysis dependency.
	Prune func(pc int, in isa.Inst) bool
	// AdaptiveBudget, when non-nil, allocates per-site sampling effort
	// from a static prediction: proved sites are skipped outright (no
	// site, no hook — counted in Profile.Pruned), likely-invariant
	// sites are down-sampled convergently, and uncertain sites get the
	// full budget. Mutually exclusive with Convergent and Sampler.
	AdaptiveBudget *AdaptivePlan
}

// SiteBudget is the per-site sampling effort an AdaptivePlan assigns.
type SiteBudget uint8

const (
	// BudgetFull profiles every execution of the site.
	BudgetFull SiteBudget = iota
	// BudgetSampled profiles the site under convergent sampling.
	BudgetSampled
	// BudgetSkip allocates nothing: no site, no TNV table, no hook.
	BudgetSkip
)

func (b SiteBudget) String() string {
	switch b {
	case BudgetFull:
		return "full"
	case BudgetSampled:
		return "sampled"
	case BudgetSkip:
		return "skip"
	}
	return fmt.Sprintf("budget(%d)", uint8(b))
}

// AdaptivePlan maps candidate sites to sampling budgets. The type is a
// plain struct of funcs and config so core needs no dependency on the
// static-analysis package that computes the predictions (see
// analysis.Predictions.Plan).
type AdaptivePlan struct {
	// Budget classifies each candidate site; nil assigns BudgetFull to
	// every site.
	Budget func(pc int, in isa.Inst) SiteBudget
	// Sampled configures the convergent sampler of BudgetSampled sites;
	// the zero value means DefaultConvergentConfig.
	Sampled ConvergentConfig
}

func (pl *AdaptivePlan) sampledConfig() ConvergentConfig {
	if pl.Sampled == (ConvergentConfig{}) {
		return DefaultConvergentConfig()
	}
	return pl.Sampled
}

// DefaultOptions profiles all result-producing instructions with the
// paper's TNV configuration, no sampling, no ground truth.
func DefaultOptions() Options {
	return Options{TNV: DefaultTNVConfig()}
}

// LoadsOnly is a Filter selecting load instructions, the paper's
// load-value profiling configuration.
func LoadsOnly(in isa.Inst) bool { return in.Op.Class() == isa.ClassLoad }

// ClassOnly returns a Filter selecting one instruction class.
func ClassOnly(c isa.Class) func(isa.Inst) bool {
	return func(in isa.Inst) bool { return in.Op.Class() == c }
}

// ValueProfiler is the ATOM tool that value-profiles instruction
// results. Create one per run with NewValueProfiler, pass it to
// atom.Run, then read Profile.
type ValueProfiler struct {
	opts  Options
	sites map[int]*SiteStats
	// seeded holds per-site state restored from a checkpoint (see
	// Seed); prepare adopts these instead of fresh stats so a resumed
	// run keeps accumulating into the restored tables.
	seeded map[int]*SiteStats
	// seedSkipped carries the run-wide skip total restored from a
	// legacy (pre-versioned) checkpoint that recorded no per-site skip
	// counters; Skipped() adds it to the per-site sum.
	seedSkipped uint64
	// Pruned counts candidate pcs Options.Prune or a BudgetSkip
	// allocation removed before any allocation happened.
	Pruned int
	// sampled marks the pcs the adaptive plan placed under convergent
	// sampling (BudgetSampled).
	sampled map[int]bool
	// bufs holds the per-site value buffers. A buffer persists across
	// Instrument calls of a reused profiler so carried-over values keep
	// their order; FlushBuffers drains them.
	bufs map[int]*vm.ValueBuffer
	// freeBufs recycles value buffers across ResetFor generations.
	freeBufs []*vm.ValueBuffer
	// slab block-allocates the per-run site state (see newSite).
	slab siteSlab
	// runs counts Instrument calls. A profiler re-instrumented for
	// further runs of the same program keeps accumulating into its
	// site tables, yielding the profile of the concatenated run.
	runs int
}

// normalized fills option defaults and validates the result; shared by
// NewValueProfiler and ResetFor.
func (o Options) normalized() (Options, error) {
	if o.Filter == nil {
		o.Filter = func(in isa.Inst) bool { return in.Op.HasDest() }
	}
	if o.TNV.Size == 0 {
		o.TNV = DefaultTNVConfig()
	}
	if err := o.TNV.validate(); err != nil {
		return o, err
	}
	if o.Convergent != nil {
		if err := o.Convergent.Validate(); err != nil {
			return o, err
		}
	}
	if o.AdaptiveBudget != nil {
		if o.Convergent != nil || o.Sampler != nil {
			return o, fmt.Errorf("AdaptiveBudget is mutually exclusive with Convergent and Sampler")
		}
		cfg := o.AdaptiveBudget.sampledConfig()
		if err := cfg.Validate(); err != nil {
			return o, fmt.Errorf("AdaptiveBudget.Sampled: %w", err)
		}
	}
	return o, nil
}

// Validate reports the error NewValueProfiler and ResetFor would
// return for o, without building a profiler: the same check both run.
func (o Options) Validate() error {
	_, err := o.normalized()
	return err
}

// NewValueProfiler validates opts and creates the tool.
func NewValueProfiler(opts Options) (*ValueProfiler, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	return &ValueProfiler{
		opts:    opts,
		sites:   make(map[int]*SiteStats),
		sampled: make(map[int]bool),
		bufs:    make(map[int]*vm.ValueBuffer),
	}, nil
}

// ResetFor rewinds a profiler for reuse on a new job, revalidating and
// adopting opts. The accumulated sites are not retained — they belong
// to the Profile extracted for the previous job (callers read
// Profile() before resetting; unextracted buffered values are
// discarded with it) — but the maps and value-buffer allocations are
// recycled. A reset profiler is observably indistinguishable from
// NewValueProfiler(opts): fresh-vs-reused byte identity of profiles is
// pinned by internal/difftest. This is the reuse lifecycle entry point
// for internal/parallel's arena and internal/supervise retries.
func (p *ValueProfiler) ResetFor(opts Options) error {
	opts, err := opts.normalized()
	if err != nil {
		return err
	}
	p.Park()
	p.opts = opts
	return nil
}

// Park drops the profiler's references to its last run: the site
// tables, the slab they were carved from, checkpoint seeds, and the
// value buffers' sites (the buffers themselves are kept for reuse). The
// sites belong to the profile that escaped with them, so a parked
// profiler no longer keeps them alive. It keeps its options; ResetFor
// replaces them and readies it for the next run.
func (p *ValueProfiler) Park() {
	clear(p.sites)
	clear(p.sampled)
	for pc, b := range p.bufs {
		b.Reset(nil) // drop pending values and the old site reference
		p.freeBufs = append(p.freeBufs, b)
		delete(p.bufs, pc)
	}
	p.seeded = nil
	p.seedSkipped = 0
	p.Pruned = 0
	p.runs = 0
	// The slab is abandoned, not reused: its storage escaped into the
	// previous profile's sites.
	p.slab = siteSlab{}
}

// Instrument implements atom.Tool: it attaches an after-instruction
// analysis routine to every selected instruction, as the paper's ATOM
// tool did ("each instruction can be profiled ... the destination
// register value is passed to the function which records the profiling
// information").
func (p *ValueProfiler) Instrument(ix *atom.Instrumenter) {
	p.runs++
	p.prepare(ix)
	factory := p.opts.Sampler
	switch {
	case p.opts.Convergent != nil:
		cfg := *p.opts.Convergent
		factory = func(int) Sampler { return newConvState(&cfg) }
	case p.opts.AdaptiveBudget != nil:
		// Per-site allocation: sampled sites share the plan's convergent
		// config, full-budget sites hook every execution.
		cfg := p.opts.AdaptiveBudget.sampledConfig()
		factory = func(pc int) Sampler {
			if p.sampled[pc] {
				return newConvState(&cfg)
			}
			return nil
		}
	}
	for pc := range p.sites {
		var sampler Sampler
		if factory != nil {
			sampler = factory(pc)
		}
		p.hook(ix, pc, sampler)
	}
}

// hook attaches the after-instruction analysis routine for one site,
// full-time when sampler is nil. Every site gets a batched value
// buffer: the VM pushes raw values and the site observes them in order
// at flush time. A sampled site's flush replays the sampler's
// take/skip decisions over the buffered stream (see sampledSink).
func (p *ValueProfiler) hook(ix *atom.Instrumenter, pc int, sampler Sampler) {
	site := p.sites[pc]
	if sampler == nil {
		p.attachBuffered(ix, pc, site)
		return
	}
	p.attachBuffered(ix, pc, &sampledSink{site: site, sampler: sampler})
}

// attachBuffered wires pc's value stream into sink through a (possibly
// recycled) ValueBuffer. On a reused profiler the existing buffer may
// still target the previous Instrument call's sink (sampled sites get
// a fresh sampler per run); any carried-over values are drained
// through the old sink — they belong to the previous run — before the
// buffer is re-targeted.
func (p *ValueProfiler) attachBuffered(ix *atom.Instrumenter, pc int, sink vm.ValueSink) {
	b := p.bufs[pc]
	if b == nil {
		if n := len(p.freeBufs); n > 0 {
			b = p.freeBufs[n-1]
			p.freeBufs[n-1] = nil
			p.freeBufs = p.freeBufs[:n-1]
			b.Reset(sink)
		} else {
			b = vm.NewValueBufferSink(sink)
		}
		p.bufs[pc] = b
	} else {
		b.Flush()
		b.Reset(sink)
	}
	ix.AddAfterBuffered(pc, b)
}

// FlushBuffers drains every batched value buffer into its site. Every
// reader of accumulated site state must flush first — Profile and
// CheckpointOf do it themselves, which also covers salvaging partial
// state from a cancelled or killed run.
func (p *ValueProfiler) FlushBuffers() {
	for _, b := range p.bufs {
		b.Flush()
	}
}

// prepare creates the site table from the program without attaching
// hooks (also used by tests). Sites restored from a checkpoint — or
// accumulated by a previous run of a reused profiler — keep their
// state; sites the profiler has never seen start fresh.
func (p *ValueProfiler) prepare(ix *atom.Instrumenter) {
	first := p.runs <= 1
	ix.ForEachInst(p.opts.Filter, func(pc int, in isa.Inst) {
		if p.opts.Prune != nil && p.opts.Prune(pc, in) {
			if first {
				p.Pruned++
			}
			return
		}
		if plan := p.opts.AdaptiveBudget; plan != nil && plan.Budget != nil {
			switch plan.Budget(pc, in) {
			case BudgetSkip:
				if first {
					p.Pruned++
				}
				return
			case BudgetSampled:
				p.sampled[pc] = true
			}
		}
		if _, ok := p.sites[pc]; ok {
			return
		}
		if s, ok := p.seeded[pc]; ok {
			p.sites[pc] = s
			return
		}
		p.sites[pc] = p.newSite(pc, ix.Prog.SiteName(pc))
	})
}

// Skipped returns the executions samplers declined to profile, summed
// across sites (plus any run-wide total restored from a legacy
// checkpoint that lacked per-site counters).
func (p *ValueProfiler) Skipped() uint64 {
	n := p.seedSkipped
	for _, s := range p.sites {
		n += s.Skipped
	}
	for pc, s := range p.seeded {
		if _, adopted := p.sites[pc]; !adopted {
			n += s.Skipped
		}
	}
	return n
}

// Profile returns the collected results.
func (p *ValueProfiler) Profile() *Profile {
	p.FlushBuffers()
	sites := make([]*SiteStats, 0, len(p.sites))
	for _, s := range p.sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].PC < sites[j].PC })
	return &Profile{Sites: sites, K: p.opts.TNV.Size, Skipped: p.Skipped(), Pruned: p.Pruned}
}

// Profile is the result of one profiling run.
type Profile struct {
	Sites []*SiteStats // sorted by PC
	K     int          // TNV width used for Top-N metrics
	// Skipped is the number of executions the convergent sampler did
	// not profile (0 for full-time profiling).
	Skipped uint64
	// Pruned is the number of candidate pcs static analysis removed
	// before the run (0 without Options.Prune).
	Pruned int
}

// Aggregate returns execution-weighted metrics over all sites.
func (pr *Profile) Aggregate() WeightedMetrics { return Aggregate(pr.Sites, pr.K) }

// Profiled returns the total number of profiled observations.
func (pr *Profile) Profiled() uint64 {
	var n uint64
	for _, s := range pr.Sites {
		n += s.Exec
	}
	return n
}

// DutyCycle returns profiled / (profiled + skipped): the fraction of
// selected-instruction executions that actually ran the expensive
// analysis path. Full-time profiling has duty cycle 1.
func (pr *Profile) DutyCycle() float64 {
	total := pr.Profiled() + pr.Skipped
	if total == 0 {
		return 0
	}
	return float64(pr.Profiled()) / float64(total)
}

// Site returns the stats for pc, or nil.
func (pr *Profile) Site(pc int) *SiteStats {
	i := sort.Search(len(pr.Sites), func(i int) bool { return pr.Sites[i].PC >= pc })
	if i < len(pr.Sites) && pr.Sites[i].PC == pc {
		return pr.Sites[i]
	}
	return nil
}

// TopSites returns the n most-executed sites, most executed first.
func (pr *Profile) TopSites(n int) []*SiteStats {
	out := append([]*SiteStats(nil), pr.Sites...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exec != out[j].Exec {
			return out[i].Exec > out[j].Exec
		}
		return out[i].PC < out[j].PC
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// CountByClass returns how many profiled sites fall in each
// invariance class, and the execution-weighted fraction of each.
func (pr *Profile) CountByClass(th ClassifyThresholds) (counts map[Class]int, execFrac map[Class]float64) {
	counts = map[Class]int{}
	execFrac = map[Class]float64{}
	var total float64
	for _, s := range pr.Sites {
		if s.Exec == 0 {
			continue
		}
		c := s.Classify(th)
		counts[c]++
		execFrac[c] += float64(s.Exec)
		total += float64(s.Exec)
	}
	if total > 0 {
		for c := range execFrac {
			execFrac[c] /= total
		}
	}
	return counts, execFrac
}

// String summarizes the profile.
func (pr *Profile) String() string {
	m := pr.Aggregate()
	return fmt.Sprintf("profile: sites=%d execs=%d LVP=%.3f InvTop1=%.3f InvTop%d=%.3f zero=%.3f duty=%.3f",
		m.Sites, m.Execs, m.LVP, m.InvTop1, pr.K, m.InvTopN, m.PctZero, pr.DutyCycle())
}
