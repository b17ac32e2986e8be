package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"valueprof/internal/core"
	"valueprof/internal/minic"
	"valueprof/internal/parallel"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// suite-full is the vprof path: every workload × {test, train}
// profiled full-time under core.DefaultOptions through parallel.Run at
// pool width 1, closed loop, each job's ProfileRecord serialized.

// suiteJob is one entry of a pass.
type suiteJob struct {
	w     *workloads.Workload
	in    workloads.Input
	label string
}

func (j suiteJob) job() parallel.Job {
	return parallel.Job{Workload: j.w, Input: j.in, Options: core.DefaultOptions()}
}

func suiteJobs() []suiteJob {
	var jobs []suiteJob
	for _, w := range workloads.All() {
		for _, in := range w.Inputs() {
			jobs = append(jobs, suiteJob{w, in, w.Name + "/" + in.Name})
		}
	}
	return jobs
}

// passCounts are the work counts of a job or a pass.
type passCounts struct {
	insts, calls, profiled, skipped, sites, clears, dropped uint64
}

func (c *passCounts) add(exec *vm.Result, prof *core.Profile) {
	c.insts += exec.InstCount
	c.calls += exec.AnalysisCalls
	c.profiled += prof.Profiled()
	c.skipped += prof.Skipped
	c.sites += uint64(len(prof.Sites))
	for _, s := range prof.Sites {
		c.clears += s.TNV.Clears()
		c.dropped += s.TNV.Dropped()
	}
}

// report emits the counts as the per-layer count metrics.
func (c *passCounts) report(m map[string]dist) {
	m["vm.insts"] = exact(float64(c.insts), 1)
	m["vm.analysis_calls"] = exact(float64(c.calls), 1)
	m["core.values_profiled"] = exact(float64(c.profiled), 1)
	m["core.values_skipped"] = exact(float64(c.skipped), 1)
	m["core.duty_cycle"] = exact(float64(c.profiled)/float64(max(c.profiled+c.skipped, 1)), 1)
	m["core.sites"] = exact(float64(c.sites), 1)
	m["core.tnv_clears"] = exact(float64(c.clears), 1)
	m["core.tnv_dropped"] = exact(float64(c.dropped), 1)
}

// suiteRun accumulates one run's samples and checks.
type suiteRun struct {
	res     *result
	jobs    []suiteJob
	seed    int64
	digests [][32]byte // per job, from the warm-up pass
	counts  *passCounts

	passSecs []float64   // profiling time per untraced pass
	jobMS    [][]float64 // per job: latency of each pass (a miss: profiled from scratch)
	readMS   [][]float64 // per job: read-back of the stored record (a hit)
	recKB    []float64   // serialized record size per traced job
	jobsDone int
	buf      bytes.Buffer
}

// order is pass p's job order, drawn from the seed.
func (s *suiteRun) order(p int) []int {
	return rand.New(rand.NewSource(s.seed*7919 + int64(p))).Perm(len(s.jobs))
}

// check compares one job's outcome with its expected output and with
// the warm-up pass: the serialized record and the run's counts must
// repeat exactly.
func (s *suiteRun) check(i int, exec *vm.Result, prof *core.Profile, err error, rec []byte) {
	j := s.jobs[i]
	s.res.attempted++
	if err != nil || exec == nil || exec.Output != j.in.Want {
		s.res.failed++
		s.res.fail("%s: output mismatch or error: %v", j.label, err)
		return
	}
	var c passCounts
	c.add(exec, prof)
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", c)
	h.Write(rec)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	if s.digests[i] == ([32]byte{}) {
		s.digests[i] = d
	} else if s.digests[i] != d {
		s.res.failed++
		s.res.fail("%s: record or counts differ from the warm-up pass", j.label)
	}
}

// endPass keeps the warm-up pass's totals for the report.
func (s *suiteRun) endPass(c passCounts) {
	if s.counts == nil {
		s.counts = &c
	}
}

// shape is what a read-back record must agree on with the written one.
// (The loader canonicalizes the order of equal-count TNV entries, so
// the bytes themselves need not round-trip.)
type shape struct{ sites, exec uint64 }

func shapeOf(r *core.ProfileRecord) shape {
	sh := shape{sites: uint64(len(r.Sites))}
	for _, s := range r.Sites {
		sh.exec += s.Exec
	}
	return sh
}

// pass runs every job once through parallel.Run and then reads each
// stored record back.
func (s *suiteRun) pass(ctx context.Context, p int) {
	var counts passCounts
	var secs float64
	recs := make([][]byte, len(s.jobs))
	shapes := make([]shape, len(s.jobs))
	for _, i := range s.order(p) {
		j := s.jobs[i]
		t0 := time.Now()
		r := parallel.Run(ctx, 1, []parallel.Job{j.job()})[0]
		s.buf.Reset()
		err := r.Err
		var rec *core.ProfileRecord
		if r.Profile != nil {
			rec = r.Profile.Record(j.w.Name, j.in.Name)
			if werr := rec.WriteJSON(&s.buf); err == nil {
				err = werr
			}
		}
		d := time.Since(t0)
		secs += d.Seconds()
		s.jobMS[i] = append(s.jobMS[i], float64(d)/1e6)
		recs[i] = append([]byte(nil), s.buf.Bytes()...)
		s.check(i, r.Exec, r.Profile, err, recs[i])
		if err == nil {
			counts.add(r.Exec, r.Profile)
			shapes[i] = shapeOf(rec)
		}
	}
	s.passSecs = append(s.passSecs, secs)
	s.jobsDone += len(s.jobs)
	s.endPass(counts)
	for _, i := range s.order(p) {
		t0 := time.Now()
		rec, err := core.ReadProfileRecord(bytes.NewReader(recs[i]))
		s.readMS[i] = append(s.readMS[i], float64(time.Since(t0))/1e6)
		if err != nil || shapeOf(rec) != shapes[i] {
			s.res.fail("%s: stored record does not read back: %v", s.jobs[i].label, err)
		}
	}
}

// tracedPass is pass with a span around every call into a layer (see
// tracedJob). It returns the summed job time, the traced counterpart
// of an untraced pass's time.
func (s *suiteRun) tracedPass(ctx context.Context, tr *Tracer, root, p int, jobID *int) (secs float64) {
	pass := tr.Begin("bench.pass", root, 0)
	var counts passCounts
	for _, i := range s.order(p) {
		j := s.jobs[i]
		*jobID++
		s.buf.Reset()
		// Like parallel.Run at width 1, the job runs on a worker
		// goroutine of its own, which may land on another CPU.
		done := make(chan traced)
		go func(id int) { done <- tracedJob(ctx, tr, pass, id, j.job(), &s.buf) }(*jobID)
		t := <-done
		secs += t.secs
		s.recKB = append(s.recKB, float64(s.buf.Len())/1024)
		s.check(i, t.exec, t.prof, t.err, s.buf.Bytes())
		if t.err == nil {
			counts.add(t.exec, t.prof)
		}
	}
	tr.End(pass)
	s.endPass(counts)
	return secs
}

// probePass runs every distinct (workload, input) bare (see bareRun).
// The guest must behave exactly as under profiling.
func (s *suiteRun) probePass(ctx context.Context, tr *Tracer, root int, jobID *int) (bareNS, bareInsts float64) {
	seen := map[string]bool{}
	for _, j := range s.jobs {
		key := j.w.Name + "/" + j.in.Name
		if seen[key] {
			continue
		}
		seen[key] = true
		*jobID++
		b := bareRun(ctx, tr, root, *jobID, j.w, j.in.Args)
		if b.err != nil || b.output != j.in.Want {
			s.res.fail("%s: bare run: output mismatch or error: %v", key, b.err)
		}
		bareNS += b.ns
		bareInsts += float64(b.insts)
	}
	return bareNS, bareInsts
}

// suiteSetup is what a fresh process pays before its first job: compile
// every workload from MiniC source and build the job list. It returns
// the compile share in seconds.
func suiteSetup() (jobs []suiteJob, compileSecs float64, err error) {
	t0 := time.Now()
	for _, w := range workloads.All() {
		if _, err := minic.Compile(w.Source); err != nil {
			return nil, 0, fmt.Errorf("compiling %s: %w", w.Name, err)
		}
	}
	compileSecs = time.Since(t0).Seconds()
	return suiteJobs(), compileSecs, nil
}

const setupReps = 41

func runSuite(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{correct: true, metrics: map[string]dist{}}
	var setupSecs, compileMS []float64
	var jobs []suiteJob
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		js, cs, err := suiteSetup()
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		compileMS = append(compileMS, cs*1e3)
		jobs = js
	}
	for _, w := range workloads.All() {
		if _, err := w.Compile(); err != nil {
			return nil, err
		}
	}
	s := &suiteRun{res: res, jobs: jobs, seed: cfg.seed, digests: make([][32]byte, len(jobs))}
	reset := func() {
		s.passSecs, s.jobsDone = nil, 0
		s.jobMS, s.readMS = make([][]float64, len(jobs)), make([][]float64, len(jobs))
	}
	reset()

	// An untimed warm-up pass fills the arena and fixes the reference
	// digests and counts every later pass must reproduce.
	s.pass(ctx, 0)
	reset()

	// A traced run interleaves an untraced pass, a traced pass of the
	// same job order and a bare pass, so all three see the same host
	// conditions and the trace overhead is a ratio of neighbours.
	var tr *Tracer
	var root, jobID int
	var bareNS, bareInsts float64
	var overhead []float64
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
		root = tr.Begin("bench.traced", 0, 0)
	}
	var mallocs, allocBytes, gcs uint64
	deadline := time.Now().Add(cfg.dur)
	for p := 1; p == 1 || time.Now().Before(deadline); p++ {
		// Each pass starts from a collected heap, so no pass pays for
		// another's garbage.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.pass(ctx, p)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		if !cfg.trace {
			continue
		}
		runtime.GC()
		secs := s.tracedPass(ctx, tr, root, p, &jobID)
		overhead = append(overhead, secs/s.passSecs[len(s.passSecs)-1]-1)
		pr := tr.Begin("bench.probe", 0, 0)
		ns, insts := s.probePass(ctx, tr, pr, &jobID)
		tr.End(pr)
		bareNS += ns
		bareInsts += insts
	}
	rss := peakRSSMB()

	// Each job stands for its fastest pass (see fastest): a typical pass
	// is the sum of the jobs' fastest times, and latency percentiles are
	// taken across them (see across).
	m := res.metrics
	m["setup_s"] = median(setupSecs)
	samples := s.jobsDone
	passSecs := sum(groupTypicals(s.jobMS, fastest)) / 1e3
	rate := func(work float64) dist {
		d := median(s.passSecs)
		return dist{Value: work / passSecs, Q1: work / d.Q3, Q3: work / d.Q1, N: samples}
	}
	m["profile_minst_per_s"] = rate(float64(s.counts.insts) / 1e6)
	m["jobs_per_s"] = rate(float64(len(jobs)))
	m["miss_p50_ms"] = across(s.jobMS, 0.5, fastest)
	m["miss_p90_ms"] = across(s.jobMS, 0.9, fastest)
	m["hit_p50_ms"] = across(s.readMS, 0.5, fastest)
	m["hit_p90_ms"] = across(s.readMS, 0.9, fastest)
	m["peak_rss_mb"] = exact(rss, 1)
	if !cfg.trace {
		return res, nil
	}

	tr.End(root)
	n := float64(s.jobsDone)
	m["runtime.allocs_per_job"] = exact(float64(mallocs)/n, s.jobsDone)
	m["runtime.alloc_kb_per_job"] = exact(float64(allocBytes)/1024/n, s.jobsDone)
	m["runtime.gc_cycles"] = exact(float64(gcs)/n, s.jobsDone)
	c := s.counts
	c.report(m)
	spans := tr.Spans()
	layer := perJob(spans)
	m["workloads.compile_ms"] = median(compileMS)
	m["parallel.acquire_us"] = median(scaled(layer["parallel.acquire"], 1e3))
	m["parallel.release_us"] = median(scaled(layer["parallel.release"], 1e3))
	m["atom.prepare_us"] = median(scaled(layer["atom.prepare"], 1e3))
	m["core.profile_us"] = median(scaled(layer["core.profile"], 1e3))
	m["core.record_us"] = median(scaled(layer["core.record"], 1e3))
	m["core.read_record_us"] = median(scaled(groupTypicals(s.readMS, medianOf), 1e-3))
	m["core.record_kb"] = exact(sum(s.recKB)/float64(len(s.recKB)), len(s.recKB))
	dispatch := bareNS / bareInsts
	hookedInsts := float64(c.insts) * float64(len(overhead))
	m["vm.dispatch_ns_per_inst"] = exact(dispatch, int(bareInsts))
	m["core.hook_ns_per_inst"] = exact(sum(layer["vm.run"])/hookedInsts-dispatch, int(hookedInsts))
	m["bench.unattributed_frac"] = exact(unattributed(spans, root), len(spans))
	m["bench.trace_overhead_frac"] = median(overhead)
	m["bench.failed_frac"] = exact(float64(res.failed)/float64(res.attempted), res.attempted)
	for _, name := range daemonOnly {
		m[name] = exact(0, 0)
	}
	return res, nil
}
