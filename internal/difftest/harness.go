package difftest

import (
	"context"
	"encoding/json"
	"fmt"

	"valueprof/internal/analysis"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// The random-sampled run's rate and seed (see checkRandom).
const randomProb, randomSeed = 0.25, 7

// Options tunes the harness. Zero values select defaults chosen to
// exercise every profiler path on small generated programs: the
// stress TNV table is tiny with a short clear interval so LFU
// replacement and periodic clearing fire constantly, and the
// convergent sampler's bursts are short enough that loop sites
// actually reach the skip state.
type Options struct {
	StepLimit uint64         // execution budget per run (default 8M)
	TNV       core.TNVConfig // the paper's table (default 10/5/2000)
	Stress    core.TNVConfig // replacement-heavy table (default 4/2/16)
	Steady    core.TNVConfig // fully-steady table, every miss drops (default 3/3/8)
	Wide      core.TNVConfig // lossless table for merge checks (default 512/256/0)
	// Convergent parameterizes the sampled run (default 32/64/512/0.05).
	Convergent core.ConvergentConfig
	// InvTolerance is the epsilon term of the sampled-accuracy bound
	// (see checkConvergent); 0 selects Convergent.Epsilon.
	InvTolerance float64
	// Workers sizes the shard pool (default 2).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.StepLimit == 0 {
		o.StepLimit = 8 << 20
	}
	if o.TNV.Size == 0 {
		o.TNV = core.DefaultTNVConfig()
	}
	if o.Stress.Size == 0 {
		o.Stress = core.TNVConfig{Size: 4, Steady: 2, ClearInterval: 16}
	}
	if o.Steady.Size == 0 {
		o.Steady = core.TNVConfig{Size: 3, Steady: 3, ClearInterval: 8}
	}
	if o.Wide.Size == 0 {
		o.Wide = core.TNVConfig{Size: 512, Steady: 256, ClearInterval: 0}
	}
	if o.Convergent.BurstLen == 0 {
		o.Convergent = core.ConvergentConfig{BurstLen: 32, InitialSkip: 64, MaxSkip: 512, Epsilon: 0.05}
	}
	if o.InvTolerance == 0 {
		o.InvTolerance = o.Convergent.Epsilon
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	return o
}

// Divergence is one broken property at one site.
type Divergence struct {
	Property string `json:"property"`
	PC       int    `json:"pc"`
	Site     string `json:"site,omitempty"`
	Detail   string `json:"detail"`
}

func (d Divergence) String() string {
	if d.PC < 0 {
		return fmt.Sprintf("[%s] %s", d.Property, d.Detail)
	}
	return fmt.Sprintf("[%s] pc %d (%s): %s", d.Property, d.PC, d.Site, d.Detail)
}

// Report is the outcome of one harness run over one program.
type Report struct {
	Program     string       `json:"program"`
	Sites       int          `json:"sites"`
	Execs       uint64       `json:"execs"` // reference observations on the primary input
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Failed reports whether any property broke.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

type harness struct {
	prog   *program.Program
	name   string
	opts   Options
	report *Report
}

func (h *harness) fail(property string, pc int, detail string, args ...any) {
	d := Divergence{Property: property, PC: pc, Detail: fmt.Sprintf(detail, args...)}
	if pc >= 0 {
		d.Site = h.prog.SiteName(pc)
	}
	h.report.Divergences = append(h.report.Divergences, d)
}

// run executes prog with the given tools; a run that does not complete
// is itself a divergence (generated programs terminate by
// construction).
func (h *harness) run(property string, input []int64, tools ...atom.Tool) (*vm.Result, bool) {
	res, outcome, err := atom.RunControlled(context.Background(), h.prog,
		atom.RunOptions{Input: input, StepLimit: h.opts.StepLimit}, tools...)
	if outcome != vm.OutcomeCompleted {
		h.fail(property, -1, "run did not complete: %v (%v)", outcome, err)
		return res, false
	}
	return res, true
}

func (h *harness) profiler(property string, opts core.Options) *core.ValueProfiler {
	vp, err := core.NewValueProfiler(opts)
	if err != nil {
		h.fail(property, -1, "profiler rejected options: %v", err)
		return nil
	}
	return vp
}

// Check runs every metamorphic property of the profiler over one
// program and two input vectors, returning all divergences found.
func Check(prog *program.Program, name string, input, input2 []int64, opts Options) *Report {
	h := &harness{prog: prog, name: name, opts: opts.withDefaults(),
		report: &Report{Program: name}}

	// Reference runs: exact value sequences for both inputs.
	ref := NewRefProfiler()
	resRef, ok := h.run("terminate", input, ref)
	if !ok {
		return h.report
	}
	ref2 := NewRefProfiler()
	if _, ok := h.run("terminate", input2, ref2); !ok {
		return h.report
	}
	h.report.Sites = len(ref.Seqs)
	for _, seq := range ref.Seqs {
		h.report.Execs += uint64(len(seq))
	}

	recFull, resFull := h.checkExact(ref, resRef, input)
	h.checkStressTNV(ref, input)
	h.checkSteadyTNV(ref, input)
	if recFull != nil {
		h.checkReuse(recFull, resFull, input, input2)
		h.checkResume(recFull, input)
		cn := analysis.AnalyzeConstness(prog)
		h.checkPrune(cn, recFull, input)
		h.checkStaticOracle(cn, recFull)
		h.checkPredict(ref, recFull, input)
	}
	h.checkShardMerge(ref, ref2, input, input2)
	h.checkConvergent(ref, resRef, input)
	h.checkRandom(ref, resRef, input)
	return h.report
}

// checkExact asserts the optimized profiler with sampling off matches
// the reference exactly: counters, exact full profile, and a naive
// replay of the TNV replacement policy, plus execution transparency
// and run-to-run determinism. Transparency includes the analysis-call
// count: the reference attaches a per-execution closure to the same
// pcs, so the batched path must charge one call per buffered value.
// Returns the full-time record and run result for the downstream
// properties.
func (h *harness) checkExact(ref *RefProfiler, resRef *vm.Result, input []int64) (*core.ProfileRecord, *vm.Result) {
	const prop = "exact"
	vp := h.profiler(prop, core.Options{TNV: h.opts.TNV, TrackFull: true})
	if vp == nil {
		return nil, nil
	}
	res, ok := h.run(prop, input, vp)
	if !ok {
		return nil, nil
	}

	// Instrumentation transparency: profiling must not perturb the
	// execution itself.
	if d := execDiff(res, resRef); d != "" {
		h.fail(prop, -1, "profiled execution differs from reference run: %s", d)
	}

	profile := vp.Profile()
	for pc := range ref.Seqs {
		if profile.Site(pc) == nil {
			h.fail(prop, pc, "reference observed %d values but profiler has no site", len(ref.Seqs[pc]))
		}
	}
	for _, s := range profile.Sites {
		seq := ref.Seqs[s.PC]
		if s.Exec != uint64(len(seq)) {
			h.fail(prop, s.PC, "Exec %d != reference %d", s.Exec, len(seq))
			continue
		}
		if s.Skipped != 0 {
			h.fail(prop, s.PC, "Skipped %d with sampling off", s.Skipped)
		}
		if want := RefLVPHits(seq); s.LVPHits != want {
			h.fail(prop, s.PC, "LVPHits %d != reference %d", s.LVPHits, want)
		}
		if want := RefZeros(seq); s.Zeros != want {
			h.fail(prop, s.PC, "Zeros %d != reference %d", s.Zeros, want)
		}
		counts := RefCounts(seq)
		if s.Full == nil {
			h.fail(prop, s.PC, "TrackFull on but no full profile")
		} else {
			if s.Full.Total() != uint64(len(seq)) || s.Full.Distinct() != len(counts) {
				h.fail(prop, s.PC, "full profile total/distinct %d/%d != reference %d/%d",
					s.Full.Total(), s.Full.Distinct(), len(seq), len(counts))
			}
			for v, c := range counts {
				if got := s.Full.Count(v); got != c {
					h.fail(prop, s.PC, "full count of %d is %d, reference %d", v, got, c)
				}
			}
			// Inv-All numerators must agree as integers for every k.
			for _, k := range []int{1, 2, h.opts.TNV.Size} {
				var got uint64
				for _, e := range s.Full.Top(k) {
					got += e.Count
				}
				if want := RefTopKSum(counts, k); got != want {
					h.fail(prop, s.PC, "Inv-All(%d) numerator %d != reference %d", k, got, want)
				}
			}
		}
		if d := tnvDiff(s.TNV, SimulateTNV(seq, h.opts.TNV.Size, h.opts.TNV.Steady, h.opts.TNV.ClearInterval)); d != "" {
			h.fail(prop, s.PC, "TNV(default) %s", d)
		}
	}

	rec := profile.Record(h.name, "in0")

	// Determinism: a second identical run must serialize identically.
	vp2 := h.profiler(prop, core.Options{TNV: h.opts.TNV, TrackFull: true})
	if vp2 != nil {
		if _, ok := h.run(prop, input, vp2); ok {
			if a, b := mustJSON(rec), mustJSON(vp2.Profile().Record(h.name, "in0")); a != b {
				h.fail("determinism", -1, "two identical runs serialized differently")
			}
		}
	}
	return rec, res
}

// checkStressTNV replays the run against a tiny table with a short
// clear interval, so LFU eviction and periodic clearing fire on
// nearly every site — the configuration most sensitive to
// replacement-policy bugs.
func (h *harness) checkStressTNV(ref *RefProfiler, input []int64) {
	const prop = "tnv-stress"
	cfg := h.opts.Stress
	vp := h.profiler(prop, core.Options{TNV: cfg})
	if vp == nil {
		return
	}
	if _, ok := h.run(prop, input, vp); !ok {
		return
	}
	for _, s := range vp.Profile().Sites {
		seq := ref.Seqs[s.PC]
		if d := tnvDiff(s.TNV, SimulateTNV(seq, cfg.Size, cfg.Steady, cfg.ClearInterval)); d != "" {
			h.fail(prop, s.PC, "TNV(stress) %s", d)
		}
	}
}

// checkSteadyTNV replays the run against a fully-steady table (Steady
// == Size): once the table fills, every miss has no eviction candidate
// and must be dropped — the configuration that exercises the Dropped
// counter on nearly every site. Beyond the naive replay it asserts
// conservation: with no eviction possible and clearing never firing
// (the table never exceeds its steady part), every update either
// incremented an entry or was dropped.
func (h *harness) checkSteadyTNV(ref *RefProfiler, input []int64) {
	const prop = "tnv-steady"
	cfg := h.opts.Steady
	vp := h.profiler(prop, core.Options{TNV: cfg})
	if vp == nil {
		return
	}
	if _, ok := h.run(prop, input, vp); !ok {
		return
	}
	for _, s := range vp.Profile().Sites {
		seq := ref.Seqs[s.PC]
		if d := tnvDiff(s.TNV, SimulateTNV(seq, cfg.Size, cfg.Steady, cfg.ClearInterval)); d != "" {
			h.fail(prop, s.PC, "TNV(steady) %s", d)
		}
		var kept uint64
		for _, e := range s.TNV.Top(s.TNV.Len()) {
			kept += e.Count
		}
		if kept+s.TNV.Dropped() != s.TNV.Updates() {
			h.fail(prop, s.PC, "kept %d + dropped %d != updates %d on a fully-steady table",
				kept, s.TNV.Dropped(), s.TNV.Updates())
		}
	}
}

// checkReuse exercises the arena lifecycle directly: a VM and profiler
// are dirtied on the secondary input, rewound in place with ResetFor,
// and replayed on the primary input. Both the execution summary and
// the serialized profile must be byte-identical to the fresh-object
// run — reuse may not be observable. ResetFor is called explicitly
// (rather than through the sync.Pool arena) so the property is
// deterministic: a pool Get may always miss and hand back a fresh
// object, which would silently test nothing.
func (h *harness) checkReuse(recFull *core.ProfileRecord, resFull *vm.Result, input, input2 []int64) {
	const prop = "fresh-vs-reused"
	if resFull == nil {
		return
	}
	popts := core.Options{TNV: h.opts.TNV, TrackFull: true}
	vp := h.profiler(prop, popts)
	if vp == nil {
		return
	}
	ropts := atom.RunOptions{Input: input2, StepLimit: h.opts.StepLimit}
	v := atom.Prepare(h.prog, ropts, vp)
	if outcome, err := v.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
		h.fail(prop, -1, "dirtying run did not complete: %v (%v)", outcome, err)
		return
	}
	if err := vp.ResetFor(popts); err != nil {
		h.fail(prop, -1, "profiler ResetFor failed: %v", err)
		return
	}
	ropts.Input = input
	v.ResetFor(h.prog, ropts.EffectiveMemSize())
	atom.PrepareOn(v, ropts, vp)
	outcome, err := v.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		h.fail(prop, -1, "reused run did not complete: %v (%v)", outcome, err)
		return
	}
	if d := execDiff(vm.ResultOf(v, outcome), resFull); d != "" {
		h.fail(prop, -1, "reused execution differs from fresh: %s", d)
	}
	if a, b := mustJSON(recFull), mustJSON(vp.Profile().Record(h.name, "in0")); a != b {
		h.fail(prop, -1, "reused profile differs from fresh run:\n got %s\nwant %s", b, a)
	}
}

// checkResume interrupts a run at half its instruction count,
// checkpoints profiler and VM, resumes both into fresh objects, and
// requires the resumed profile to serialize byte-identically to the
// uninterrupted run's.
func (h *harness) checkResume(recFull *core.ProfileRecord, input []int64) {
	const prop = "resume"
	vp := h.profiler(prop, core.Options{TNV: h.opts.TNV})
	if vp == nil {
		return
	}
	v := atom.Prepare(h.prog, atom.RunOptions{Input: input, StepLimit: h.opts.StepLimit}, vp)
	outcome, err := v.RunControlled(context.Background())
	if outcome != vm.OutcomeCompleted {
		h.fail(prop, -1, "full run failed: %v (%v)", outcome, err)
		return
	}
	half := v.InstCount / 2
	if half == 0 {
		return // nothing to interrupt
	}

	vp1 := h.profiler(prop, core.Options{TNV: h.opts.TNV})
	if vp1 == nil {
		return
	}
	v1 := atom.Prepare(h.prog, atom.RunOptions{Input: input, StepLimit: half}, vp1)
	if outcome, _ := v1.RunControlled(context.Background()); outcome != vm.OutcomeLimit {
		h.fail(prop, -1, "interrupted run: want limit outcome at step %d, got %v", half, outcome)
		return
	}
	ck, err := core.CheckpointOf(vp1, v1, h.name, "in0")
	if err != nil {
		h.fail(prop, -1, "checkpoint failed: %v", err)
		return
	}

	// Round-trip through the wire format, as a real resume would.
	vp2 := h.profiler(prop, core.Options{TNV: h.opts.TNV})
	if vp2 == nil {
		return
	}
	if err := vp2.Seed(ck); err != nil {
		h.fail(prop, -1, "seeding resumed profiler failed: %v", err)
		return
	}
	v2 := atom.Prepare(h.prog, atom.RunOptions{Input: input, StepLimit: h.opts.StepLimit}, vp2)
	if err := ck.RestoreVM(v2); err != nil {
		h.fail(prop, -1, "restoring VM failed: %v", err)
		return
	}
	if outcome, err := v2.RunControlled(context.Background()); outcome != vm.OutcomeCompleted {
		h.fail(prop, -1, "resumed run failed: %v (%v)", outcome, err)
		return
	}
	if a, b := mustJSON(recFull), mustJSON(vp2.Profile().Record(h.name, "in0")); a != b {
		h.fail(prop, -1, "resumed profile differs from uninterrupted run:\n got %s\nwant %s", b, a)
	}
}

// checkShardMerge runs the program over two inputs as parallel shards
// and as one concatenated serial run, records both shards and merges
// the records with core.MergeRecords — the merge vprofd and vprof
// -merge run — then compares the merged record against the
// concatenation's, site by site: Exec and Zeros exact, LVP hits short
// by at most the one splice-boundary hit per site, and — when the wide
// table provably never evicted — TNV counts exact. The merged record
// must also pass the strict loader.
func (h *harness) checkShardMerge(ref, ref2 *RefProfiler, input, input2 []int64) {
	const prop = "shard-merge"
	wide := core.Options{TNV: h.opts.Wide}

	vpConcat := h.profiler(prop, core.Options{TNV: h.opts.Wide, TrackFull: true})
	if vpConcat == nil {
		return
	}
	if _, ok := h.run(prop, input, vpConcat); !ok {
		return
	}
	if _, ok := h.run(prop, input2, vpConcat); !ok {
		return
	}
	concat := vpConcat.Profile()

	jobs := []parallel.Job{
		{Prog: h.prog, Input: workloads.Input{Name: h.name + "/shard0", Args: input}, Options: wide,
			Run: atom.RunOptions{StepLimit: h.opts.StepLimit}},
		{Prog: h.prog, Input: workloads.Input{Name: h.name + "/shard1", Args: input2}, Options: wide,
			Run: atom.RunOptions{StepLimit: h.opts.StepLimit}},
	}
	results := parallel.Run(context.Background(), h.opts.Workers, jobs)
	if err := parallel.FirstError(results); err != nil {
		h.fail(prop, -1, "shard run failed: %v", err)
		return
	}
	merged, err := core.MergeRecords(results[0].Profile.Record(h.name, "shard0"),
		results[1].Profile.Record(h.name, "shard1"))
	if err != nil {
		h.fail(prop, -1, "merging shard records: %v", err)
		return
	}
	if err := strictRecordRoundTrip(merged); err != nil {
		h.fail(prop, -1, "merged record fails strict load: %v", err)
	}

	if merged.Skipped != 0 || concat.Skipped != 0 {
		h.fail(prop, -1, "skips recorded with sampling off (merged %d, concat %d)", merged.Skipped, concat.Skipped)
	}
	concatRec := concat.Record(h.name, "concat")
	if len(merged.Sites) != len(concatRec.Sites) {
		h.fail(prop, -1, "merged record has %d sites, concatenated %d", len(merged.Sites), len(concatRec.Sites))
	}
	concatByPC := make(map[int]*core.SiteRecord, len(concatRec.Sites))
	for i := range concatRec.Sites {
		concatByPC[concatRec.Sites[i].PC] = &concatRec.Sites[i]
	}
	mergedByPC := make(map[int]*core.SiteRecord, len(merged.Sites))
	for i := range merged.Sites {
		mergedByPC[merged.Sites[i].PC] = &merged.Sites[i]
	}
	for _, site := range concat.Sites {
		seqLen := uint64(len(ref.Seqs[site.PC]) + len(ref2.Seqs[site.PC]))
		if site.Exec != seqLen {
			h.fail(prop, site.PC, "Exec concat %d != reference %d", site.Exec, seqLen)
			continue
		}
		if seqLen == 0 {
			continue // no record holds a site that never ran
		}
		cs, ms := concatByPC[site.PC], mergedByPC[site.PC]
		if ms == nil {
			h.fail(prop, site.PC, "site missing from merged record")
			continue
		}
		if ms.Exec != seqLen {
			h.fail(prop, site.PC, "Exec merged %d != reference %d", ms.Exec, seqLen)
			continue
		}
		if cs.Zeros != ms.Zeros {
			h.fail(prop, site.PC, "Zeros concat %d != merged %d", cs.Zeros, ms.Zeros)
		}
		// Merging concatenates the shards' value streams except that
		// the hit (or miss) at the splice point is unobservable: the
		// merged count may undercount by at most 1.
		if ms.LVPHits > cs.LVPHits || cs.LVPHits-ms.LVPHits > 1 {
			h.fail(prop, site.PC, "LVPHits merged %d vs concat %d (allowed undercount ≤ 1)", ms.LVPHits, cs.LVPHits)
		}
		combined := RefCounts(ref.Seqs[site.PC])
		for v, c := range RefCounts(ref2.Seqs[site.PC]) {
			combined[v] += c
		}
		for v, c := range combined {
			if site.Full.Count(v) != c {
				h.fail(prop, site.PC, "concat full count of %d is %d, reference %d", v, site.Full.Count(v), c)
			}
		}
		// With every distinct value fitting in the wide table and
		// clearing off, the TNV tables are lossless: both records must
		// hold exactly the reference counts.
		if len(combined) <= h.opts.Wide.Size {
			for viewName, s := range map[string]*core.SiteRecord{"concat": cs, "merged": ms} {
				got := make(map[int64]uint64, len(s.Top))
				for _, e := range s.Top {
					got[e.Value] = e.Count
				}
				if len(got) != len(combined) {
					h.fail(prop, site.PC, "%s TNV has %d entries, reference %d", viewName, len(got), len(combined))
					continue
				}
				for v, c := range combined {
					if got[v] != c {
						h.fail(prop, site.PC, "%s TNV count of %d is %d, reference %d", viewName, v, got[v], c)
					}
				}
			}
		}
	}
}

// checkPrune compares a prune-on run against the prune-off record:
// surviving sites must serialize byte-identically, and every dropped
// site must be one the static analysis vetoed.
func (h *harness) checkPrune(cn *analysis.Constness, recFull *core.ProfileRecord, input []int64) {
	const prop = "prune"
	vp := h.profiler(prop, core.Options{TNV: h.opts.TNV, Prune: cn.ShouldPrune})
	if vp == nil {
		return
	}
	if _, ok := h.run(prop, input, vp); !ok {
		return
	}
	rec := vp.Profile().Record(h.name, "in0")

	fullByPC := map[int]*core.SiteRecord{}
	for i := range recFull.Sites {
		fullByPC[recFull.Sites[i].PC] = &recFull.Sites[i]
	}
	prunedByPC := map[int]bool{}
	for i := range rec.Sites {
		s := &rec.Sites[i]
		prunedByPC[s.PC] = true
		want, ok := fullByPC[s.PC]
		if !ok {
			h.fail(prop, s.PC, "site appears only in the prune-on record")
			continue
		}
		if mustJSON(s) != mustJSON(want) {
			h.fail(prop, s.PC, "surviving site differs from prune-off run:\n got %s\nwant %s",
				mustJSON(s), mustJSON(want))
		}
	}
	for pc := range fullByPC {
		if !prunedByPC[pc] && !cn.ShouldPrune(pc, h.prog.Code[pc]) {
			h.fail(prop, pc, "site dropped by pruning but not vetoed by static analysis")
		}
	}
}

// checkStaticOracle cross-checks the dynamic record against the
// static constness facts (a proven-constant site must have profiled
// exactly its proven value, an unreached site must have no record).
func (h *harness) checkStaticOracle(cn *analysis.Constness, recFull *core.ProfileRecord) {
	for _, c := range analysis.CheckRecord(cn, recFull) {
		h.fail("static-oracle", c.PC, "%s", c.String())
	}
}

// checkPredict asserts the predictive-invariance contract. The proved
// tier is held to oracle standard: no recorded profile may contradict
// a proved claim (constant value, unreachability, interval membership,
// at-most-once execution). Then the adaptive budget derived from the
// prediction is run and checked structurally: skipped sites must be
// exactly the proved tier, every site still accounts for all its
// executions, full-budget sites must serialize byte-identically to the
// unpruned record, and the plan may never observe more executions than
// static pruning would have.
func (h *harness) checkPredict(ref *RefProfiler, recFull *core.ProfileRecord, input []int64) {
	const prop = "predict"
	pred := analysis.Predict(h.prog)
	for _, c := range pred.CheckRecord(recFull) {
		h.fail(prop, c.PC, "proved-tier contradiction: %s", c.String())
	}

	plan := pred.Plan(h.opts.Convergent)
	vp := h.profiler(prop, core.Options{TNV: h.opts.TNV, AdaptiveBudget: &plan})
	if vp == nil {
		return
	}
	if _, ok := h.run(prop, input, vp); !ok {
		return
	}
	rec := vp.Profile().Record(h.name, "in0")

	fullByPC := map[int]*core.SiteRecord{}
	for i := range recFull.Sites {
		fullByPC[recFull.Sites[i].PC] = &recFull.Sites[i]
	}
	var fullObs, staticObs, adaptObs uint64
	cn := pred.Constness
	for pc, s := range fullByPC {
		fullObs += s.Exec
		if !cn.ShouldPrune(pc, h.prog.Code[pc]) {
			staticObs += s.Exec
		}
	}
	for i := range rec.Sites {
		s := &rec.Sites[i]
		adaptObs += s.Exec
		budget := plan.Budget(s.PC, h.prog.Code[s.PC])
		if budget == core.BudgetSkip {
			h.fail(prop, s.PC, "proved-tier site was profiled under the adaptive budget")
			continue
		}
		want, ok := fullByPC[s.PC]
		if !ok {
			h.fail(prop, s.PC, "site appears only in the adaptive record")
			continue
		}
		if budget == core.BudgetFull {
			if mustJSON(s) != mustJSON(want) {
				h.fail(prop, s.PC, "full-budget site differs from unpruned run:\n got %s\nwant %s",
					mustJSON(s), mustJSON(want))
			}
			continue
		}
		// Sampled: every execution is either observed or accounted as
		// skipped, never lost.
		if seq := ref.Seqs[s.PC]; s.Exec+vp.Profile().Site(s.PC).Skipped != uint64(len(seq)) {
			h.fail(prop, s.PC, "sampled site profiled %d + skipped %d != executions %d",
				s.Exec, vp.Profile().Site(s.PC).Skipped, len(seq))
		}
	}
	if adaptObs > staticObs {
		h.fail(prop, -1, "adaptive budget observed %d executions, static pruning only %d (of %d total)",
			adaptObs, staticObs, fullObs)
	}
}

// checkConvergent runs the intelligent sampler and asserts its
// contract twice over. First, exactly: which executions get profiled
// is a deterministic function of the value stream, so every counter
// and TNV entry of the sampled run must equal a naive replay of the
// burst/skip state machine (SimulateConvergent), and the execution
// must match the reference run's (see sampledRun). Second, accuracy:
// the sampled Inv-Top(1) must stay within a provable distance of the
// exact Inv-All(1). Epsilon alone is NOT that distance — the
// convergence criterion only bounds checkpoint-to-checkpoint drift of
// the estimate, and values arriving during skip windows are
// unobservable in principle — so the bound is the sum of the three
// error sources:
//
//	InvTolerance (≈ epsilon)  drift below the convergence criterion
//	skipped/executions        executions the sampler never saw
//	lost/profiled             TNV counts the table did not retain:
//	                          shed by eviction or clearing, or dropped
//	                          outright against a full fully-steady table
func (h *harness) checkConvergent(ref *RefProfiler, resRef *vm.Result, input []int64) {
	const prop = "convergent"
	cfg := h.opts.Convergent
	tnv := h.opts.TNV
	profile := h.sampledRun(prop, core.Options{TNV: tnv, Convergent: &cfg}, resRef, input)
	if profile == nil {
		return
	}
	for _, s := range profile.Sites {
		seq := ref.Seqs[s.PC]
		if s.Exec+s.Skipped != uint64(len(seq)) {
			h.fail(prop, s.PC, "profiled %d + skipped %d != executions %d", s.Exec, s.Skipped, len(seq))
			continue
		}
		sim := SimulateConvergent(seq, tnv.Size, tnv.Steady, tnv.ClearInterval,
			cfg.BurstLen, cfg.InitialSkip, cfg.MaxSkip, cfg.Epsilon)
		if !h.sameAsReplay(prop, s, sim) {
			continue
		}

		// Accuracy bound. The table loss is computable from the replay:
		// counts currently in the table versus values ever added.
		var kept uint64
		for _, e := range sim.TNV.Entries {
			kept += e.Count
		}
		bound := h.opts.InvTolerance + 1e-9
		if n := uint64(len(seq)); n > 0 {
			bound += float64(s.Skipped) / float64(n)
		}
		if sim.TNV.Updates > 0 {
			bound += float64(sim.TNV.Updates-kept) / float64(sim.TNV.Updates)
		}
		got, want := s.TNV.InvTop(1), RefInvAll(seq, 1)
		if diff := got - want; diff < -bound || diff > bound {
			h.fail(prop, s.PC, "sampled Inv-Top(1) %.4f vs exact Inv-All(1) %.4f exceeds bound %.4f (exec %d, skipped %d)",
				got, want, bound, s.Exec, s.Skipped)
		}
	}
}

// checkRandom runs the random sampler and requires every site to
// equal a naive per-execution replay of its stream (SimulateRandom):
// which executions get profiled depends only on (seed, pc) and the
// execution count, so counters and TNV entries must match exactly. The
// execution must match the reference run's (see sampledRun), and a
// second run with the same factory must serialize byte-identically.
func (h *harness) checkRandom(ref *RefProfiler, resRef *vm.Result, input []int64) {
	const prop = "random"
	tnv := h.opts.TNV
	opts := core.Options{TNV: tnv, Sampler: core.NewRandomFactory(randomProb, randomSeed)}
	profile := h.sampledRun(prop, opts, resRef, input)
	if profile == nil {
		return
	}
	for _, s := range profile.Sites {
		h.sameAsReplay(prop, s, SimulateRandom(ref.Seqs[s.PC], tnv.Size, tnv.Steady, tnv.ClearInterval,
			randomProb, randomSeed, s.PC))
	}
	if again := h.sampledRun(prop, opts, resRef, input); again != nil &&
		mustJSON(again.Record(h.name, "in0")) != mustJSON(profile.Record(h.name, "in0")) {
		h.fail(prop, -1, "two identical random-sampled runs serialized differently")
	}
}

// sampledRun profiles input under a sampling configuration and
// requires the execution to match the reference run's: decisions are
// replayed at flush time, so every execution still costs one analysis
// call. It returns nil if the run could not be made.
func (h *harness) sampledRun(prop string, opts core.Options, resRef *vm.Result, input []int64) *core.Profile {
	vp := h.profiler(prop, opts)
	if vp == nil {
		return nil
	}
	res, ok := h.run(prop, input, vp)
	if !ok {
		return nil
	}
	if d := execDiff(res, resRef); d != "" {
		h.fail(prop, -1, "sampled execution differs from reference run: %s", d)
	}
	return vp.Profile()
}

// sameAsReplay compares a sampled site with its naive replay: counters
// and TNV entries must be equal. It reports whether the profiled and
// skipped counts matched, the precondition for comparing anything
// derived from them.
func (h *harness) sameAsReplay(prop string, s *core.SiteStats, sim *RefSampled) bool {
	if s.Exec != sim.Profiled || s.Skipped != sim.Skipped {
		h.fail(prop, s.PC, "profiled/skipped %d/%d != naive sampler replay %d/%d",
			s.Exec, s.Skipped, sim.Profiled, sim.Skipped)
		return false
	}
	if s.LVPHits != sim.LVPHits {
		h.fail(prop, s.PC, "LVPHits %d != naive sampler replay %d", s.LVPHits, sim.LVPHits)
	}
	if s.Zeros != sim.Zeros {
		h.fail(prop, s.PC, "Zeros %d != naive sampler replay %d", s.Zeros, sim.Zeros)
	}
	if d := tnvDiff(s.TNV, sim.TNV); d != "" {
		h.fail(prop, s.PC, "sampled TNV %s", d)
	}
	return true
}

// execDiff compares the observable summaries of two runs — output,
// exit status, instructions, cycles and analysis calls — and describes
// the first difference, or returns "".
func execDiff(got, want *vm.Result) string {
	switch {
	case got.Output != want.Output:
		return fmt.Sprintf("output %q vs %q", got.Output, want.Output)
	case got.ExitStatus != want.ExitStatus:
		return fmt.Sprintf("exit status %d vs %d", got.ExitStatus, want.ExitStatus)
	case got.InstCount != want.InstCount:
		return fmt.Sprintf("inst %d vs %d", got.InstCount, want.InstCount)
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d vs %d", got.Cycles, want.Cycles)
	case got.AnalysisCalls != want.AnalysisCalls:
		return fmt.Sprintf("analysis calls %d vs %d", got.AnalysisCalls, want.AnalysisCalls)
	}
	return ""
}

// tnvDiff compares an optimized table against the naive replay and
// describes the first difference, or returns "".
func tnvDiff(t *core.TNVTable, ref *RefTNV) string {
	if t.Updates() != ref.Updates {
		return fmt.Sprintf("updates %d != reference %d", t.Updates(), ref.Updates)
	}
	if t.Dropped() != ref.Dropped {
		return fmt.Sprintf("dropped %d != reference %d", t.Dropped(), ref.Dropped)
	}
	if t.Clears() != ref.Clears {
		return fmt.Sprintf("clears %d != reference %d", t.Clears(), ref.Clears)
	}
	entries := t.Top(t.Len())
	if len(entries) != len(ref.Entries) {
		return fmt.Sprintf("has %d entries, reference %d", len(entries), len(ref.Entries))
	}
	for i := range entries {
		if entries[i].Value != ref.Entries[i].Value || entries[i].Count != ref.Entries[i].Count {
			return fmt.Sprintf("entry %d is %d:%d, reference %d:%d", i,
				entries[i].Value, entries[i].Count, ref.Entries[i].Value, ref.Entries[i].Count)
		}
	}
	return ""
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
