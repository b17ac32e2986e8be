package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"valueprof/internal/analysis"
	"valueprof/internal/atomicio"
	"valueprof/internal/core"
	"valueprof/internal/minic"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/serve"
	"valueprof/internal/workloads"
)

// daemon-mixed: an in-process vprofd (serve.New, one worker) behind
// httptest, driven by two closed-loop callers, each its own tenant,
// over at most two connections. A miss streams SSE until "done" and
// then fetches the result; a hit fetches it directly.
//
// The daemon keeps its state in memory. With a state directory every
// submission and every finished input fsyncs a manifest, and fsync
// latency on a shared disk swings by tens of milliseconds from run to
// run, more than any bound a gate could use; the persistence layer is
// timed instead outside the daemon (atomicio.write_us).
//
// It streams progress every 200000 instructions rather than vprofd's
// default 20000. At the default a job sends thousands of progress
// events a second, each handed between goroutines, so the request rate
// depends on the second vCPU being free at once: with a busy process
// beside the benchmark it fell by a sixth, at 200000 not at all.

// daemon is one running vprofd instance.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
}

func startDaemon() (*daemon, error) {
	srv, err := serve.New(serve.Options{Workers: 1, PulseEvery: 200_000})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: httptest.NewServer(srv.Handler())}
	resp, err := http.Get(d.hs.URL + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	resp.Body.Close()
	return d, nil
}

// stop closes the listener once every request has finished and stops
// the workers. Every job has finished by then, so Shutdown has nothing
// to evict.
func (d *daemon) stop() error {
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// stats fetches GET /v1/stats.
func (d *daemon) stats(c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(d.hs.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// wireProgram is one workload as a client submits it.
type wireProgram struct {
	w     *workloads.Workload
	image []byte // canonical VPX1 bytes
	b64   string
}

// daemonSetup compiles every workload and encodes it as a submitted
// image, draws the request plan, and starts a daemon with empty state.
func daemonSetup(seed int64) ([]wireProgram, [][]request, *daemon, float64, error) {
	t0 := time.Now()
	var progs []wireProgram
	var baseArgs [][]int64
	for _, w := range workloads.All() {
		p, err := minic.Compile(w.Source)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("compiling %s: %w", w.Name, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			return nil, nil, nil, 0, err
		}
		progs = append(progs, wireProgram{w: w, image: buf.Bytes(), b64: base64.StdEncoding.EncodeToString(buf.Bytes())})
		baseArgs = append(baseArgs, w.Test.Args)
	}
	compileSecs := time.Since(t0).Seconds()
	plan := makePlan(seed, baseArgs, roundLen)
	d, err := startDaemon()
	return progs, plan, d, compileSecs, err
}

// outcome is one completed request.
type outcome struct {
	caller, k int
	hit       bool
	ms        float64
	jobID     string
	digest    string
	sum       [32]byte // SHA-256 of the result body
	resultLen int
	err       error
}

// loadgen runs the callers against one daemon.
type loadgen struct {
	d      *daemon
	client *http.Client
	progs  []wireProgram
	plan   [][]request
	tr     *Tracer
	idBase int // job ids of this round's requests follow it
}

// roundLen is how many requests of its plan each caller makes in a
// round. Every round replays the same requests on a fresh daemon, so it
// does the same work and sees the same hits and misses; a run repeats
// rounds until its time is up and reports its best round (see best).
const roundLen = 40

// round is one replay of the plan on a fresh daemon.
type round struct {
	outs  []outcome
	wall  time.Duration
	stats serve.Stats
}

// runRound starts a daemon, drives both callers through their first
// roundLen requests, hands the outcomes to the verifier while the daemon
// still holds the results, and stops it.
func runRound(ctx context.Context, lg loadgen, root int, v *verifier) (round, error) {
	d, err := startDaemon()
	if err != nil {
		return round{}, err
	}
	lg.d = d
	var r round
	r.outs, r.wall = lg.drive(ctx, root)
	r.stats, err = d.stats(lg.client)
	if err == nil {
		v.observe(ctx, &lg, r.outs)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return r, err
}

// drive runs both callers through one round and returns the outcomes
// and the round's length.
func (dr *loadgen) drive(ctx context.Context, root int) ([]outcome, time.Duration) {
	start := time.Now()
	outs := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			span := dr.tr.Begin("bench.caller", root, 0)
			defer dr.tr.End(span)
			for k := 0; k < roundLen; k++ {
				outs[c] = append(outs[c], dr.do(ctx, span, c, k))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, wall
}

// do submits plan[c][k] and fetches its result.
func (dr *loadgen) do(ctx context.Context, parent, c, k int) outcome {
	tr := dr.tr
	id := dr.idBase + c*roundLen + k + 1
	o := outcome{caller: c, k: k}
	rs := tr.Begin("bench.request", parent, id)
	defer tr.End(rs)
	r := dr.plan[c][k]
	body, err := json.Marshal(serve.JobRequest{
		Client:  fmt.Sprintf("tenant-%d", c),
		Program: serve.WireProgram{Image: dr.progs[r.prog].b64},
		Inputs:  r.inputs,
		Config:  wireConfig(r.cfg),
	})
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	sub := tr.Begin("http.submit", rs, id)
	var submitted struct{ Job serve.JobStatus }
	status, err := dr.call(ctx, "POST", "/v1/jobs", body, &submitted)
	tr.End(sub)
	switch {
	case err != nil:
		o.err = err
		return o
	case status == http.StatusOK:
		o.hit = true
		tr.Rename(sub, "http.submit_hit")
	case status == http.StatusAccepted:
		tr.Rename(sub, "http.submit_miss")
		if err := dr.stream(ctx, rs, id, submitted.Job.ID); err != nil {
			o.err = err
			return o
		}
	default:
		o.err = fmt.Errorf("submit: HTTP %d", status)
		return o
	}
	o.jobID = submitted.Job.ID
	res := tr.Begin("http.result", rs, id)
	data, digest, err := dr.result(ctx, o.jobID)
	tr.End(res)
	o.ms = float64(time.Since(t0)) / 1e6
	o.err = err
	o.digest = digest
	o.sum = sha256.Sum256(data)
	o.resultLen = len(data)
	return o
}

// call makes one JSON request and decodes the response into v.
func (dr *loadgen) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, dr.d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := dr.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// stream follows a job's SSE stream to its "done" event. The span
// serve.wait covers the time until the job is seen running (a status
// event in state running, or the first progress event); serve.run
// covers the rest.
func (dr *loadgen) stream(ctx context.Context, parent, id int, jobID string) error {
	tr := dr.tr
	span := tr.Begin("serve.wait", parent, id)
	running := false
	markRunning := func() {
		if !running {
			running = true
			tr.End(span)
			span = tr.Begin("serve.run", parent, id)
		}
	}
	defer func() { tr.End(span) }()
	req, err := http.NewRequestWithContext(ctx, "GET", dr.d.hs.URL+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := dr.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: HTTP %d", jobID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "status":
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return err
			}
			if st.State != serve.StateQueued {
				markRunning()
			}
		case "progress":
			markRunning()
		case "done":
			markRunning()
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return err
			}
			if st.State != serve.StateCompleted {
				return fmt.Errorf("job %s ended %s: %+v", jobID, st.State, st.Error)
			}
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream %s ended without done", jobID)
}

// result fetches a completed job's record and its digest header.
func (dr *loadgen) result(ctx context.Context, jobID string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", dr.d.hs.URL+"/v1/jobs/"+jobID+"/result", nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := dr.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	digest := resp.Header.Get("X-Vprof-Digest")
	if resp.StatusCode != http.StatusOK || digest == "" {
		return nil, "", fmt.Errorf("result %s: HTTP %d, digest %q", jobID, resp.StatusCode, digest)
	}
	return data, digest, nil
}

// daemonOnly are the per-layer metrics only the daemon workload has;
// the suite workloads report them as 0.
var daemonOnly = []string{
	"http.submit_hit_ms", "http.submit_miss_ms", "program.load_us", "analysis.verify_us",
	"serve.normalize_us", "serve.digest_us", "serve.wait_ms", "serve.run_ms",
	"http.result_ms", "http.result_kb", "core.merge_records_us", "atomicio.write_us",
	"serve.cache_hits", "serve.cache_misses", "serve.cache_entries", "serve.jobs_tracked",
}

// layerReplays bounds how many distinct sub-runs a traced run replays
// through the traced job path for the vm and core layer numbers.
const layerReplays = 20

func runDaemon(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{correct: true, metrics: map[string]dist{}}
	m := res.metrics
	var setupSecs, compileMS []float64
	var progs []wireProgram
	var plan [][]request
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		ps, pl, d, cs, err := daemonSetup(cfg.seed)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		compileMS = append(compileMS, cs*1e3)
		progs, plan = ps, pl
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	for _, p := range progs {
		if _, err := p.w.Compile(); err != nil {
			return nil, err
		}
	}
	transport := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}
	defer transport.CloseIdleConnections()
	lg := loadgen{client: &http.Client{Transport: transport}, progs: progs, plan: plan}
	v := &verifier{res: res, progs: progs, plan: plan, workDir: cfg.workDir, records: map[inputKey]*verified{}, results: map[string]*seen{}}

	// rounds runs rounds until the deadline, at least one. The peak
	// RSS is read when the first round ends: the daemon's memory grows
	// with the jobs it holds, so a fixed amount of work keeps the
	// figure comparable between runs and between commits.
	var rss float64
	rounds := func(dur time.Duration, root int) ([]round, error) {
		var rs []round
		deadline := time.Now().Add(dur)
		for len(rs) == 0 || time.Now().Before(deadline) {
			lg.idBase = len(rs) * callers * roundLen
			r, err := runRound(ctx, lg, root, v)
			if err != nil {
				return nil, err
			}
			if rss == 0 {
				rss = peakRSSMB()
			}
			rs = append(rs, r)
		}
		return rs, nil
	}
	untraced := cfg.dur
	if cfg.trace {
		untraced = cfg.dur / 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := rounds(untraced, 0)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	// The traced half replays the same rounds.
	var traced []round
	if cfg.trace {
		res.spans = newTracer()
		lg.tr = res.spans
		root := res.spans.Begin("bench.traced", 0, 0)
		traced, err = rounds(cfg.dur-untraced, root)
		res.spans.End(root)
		if err != nil {
			return nil, err
		}
	}
	v.verify(ctx)

	// Each figure is taken per round and the best round's is reported
	// (see best).
	figs := map[string][]float64{}
	for _, r := range plain {
		for name, x := range v.figures(r, len(progs)) {
			figs[name] = append(figs[name], x)
		}
	}
	requests := callers * roundLen * len(plain)
	m["setup_s"] = median(setupSecs)
	for _, name := range []string{"profile_minst_per_s", "jobs_per_s"} {
		m[name] = best(figs[name], true, requests)
	}
	for _, name := range []string{"miss_p50_ms", "miss_p90_ms", "hit_p50_ms", "hit_p90_ms"} {
		m[name] = best(figs[name], false, requests)
	}
	m["peak_rss_mb"] = exact(rss, 1)
	if !cfg.trace {
		return res, nil
	}

	n := float64(requests)
	st := plain[len(plain)-1].stats
	m["runtime.allocs_per_job"] = exact(float64(after.Mallocs-before.Mallocs)/n, requests)
	m["runtime.alloc_kb_per_job"] = exact(float64(after.TotalAlloc-before.TotalAlloc)/1024/n, requests)
	m["runtime.gc_cycles"] = exact(float64(after.NumGC-before.NumGC)/n, requests)
	m["serve.cache_hits"] = exact(float64(st.Cache.Hits), 1)
	m["serve.cache_misses"] = exact(float64(st.Cache.Misses), 1)
	m["serve.cache_entries"] = exact(float64(st.Cache.Entries), 1)
	m["serve.jobs_tracked"] = exact(float64(st.Jobs), 1)
	m["workloads.compile_ms"] = median(compileMS)

	spans := res.spans.Spans()
	layer := perJob(spans)
	ms := func(name string) dist { return median(scaled(layer[name], 1e6)) }
	m["http.submit_hit_ms"] = ms("http.submit_hit")
	m["http.submit_miss_ms"] = ms("http.submit_miss")
	m["serve.wait_ms"] = ms("serve.wait")
	m["serve.run_ms"] = ms("serve.run")
	m["http.result_ms"] = ms("http.result")
	var resultKB []float64
	for _, o := range traced[0].outs {
		if o.err == nil {
			resultKB = append(resultKB, float64(o.resultLen)/1024)
		}
	}
	m["http.result_kb"] = median(resultKB)
	m["bench.unattributed_frac"] = exact(unattributed(spans, 1), len(spans))
	var tracedRates []float64
	for _, r := range traced {
		tracedRates = append(tracedRates, v.figures(r, len(progs))["jobs_per_s"])
	}
	m["bench.trace_overhead_frac"] = exact(m["jobs_per_s"].Value/best(tracedRates, true, len(traced)).Value-1, len(traced))

	v.replay(ctx, res.spans, traced[0].outs, len(traced)*callers*roundLen, m)
	m["bench.failed_frac"] = exact(float64(res.failed)/float64(res.attempted), res.attempted)
	return res, nil
}

// figures are one round's end-to-end figures: its request and
// instruction rates and its latency percentiles, taken across the
// programs' medians (see across).
func (v *verifier) figures(r round, nprogs int) map[string]float64 {
	hitMS, missMS := make([][]float64, nprogs), make([][]float64, nprogs)
	var hits, misses int
	var insts float64
	for _, o := range r.outs {
		if o.err != nil {
			continue
		}
		prog := v.plan[o.caller][o.k].prog
		if o.hit {
			hitMS[prog] = append(hitMS[prog], o.ms)
			hits++
		} else {
			missMS[prog] = append(missMS[prog], o.ms)
			misses++
			insts += v.ranInsts(o)
		}
	}
	if hits == 0 || misses == 0 {
		v.res.fail("a round saw %d hits and %d misses; it needs both", hits, misses)
	}
	secs := r.wall.Seconds()
	return map[string]float64{
		"profile_minst_per_s": insts / secs / 1e6,
		"jobs_per_s":          float64(len(r.outs)) / secs,
		"miss_p50_ms":         across(missMS, 0.5, medianOf).Value,
		"miss_p90_ms":         across(missMS, 0.9, medianOf).Value,
		"hit_p50_ms":          across(hitMS, 0.5, medianOf).Value,
		"hit_p90_ms":          across(hitMS, 0.9, medianOf).Value,
	}
}

// seen is one distinct result digest.
type seen struct {
	sum   [32]byte
	jobID string
	req   request
	data  []byte // fetched again after the timed phase
}

// verified is one direct run of a single-input sub-run.
type verified struct {
	rec   *core.ProfileRecord // round-tripped through its serialized form
	insts uint64
}

// verifier holds everything the correctness gate needs.
type verifier struct {
	res     *result
	progs   []wireProgram
	plan    [][]request
	workDir string
	records map[inputKey]*verified
	keys    []inputKey // direct runs in first-needed order
	results map[string]*seen
	order   []string // distinct digests in first-seen order
}

// observe checks each outcome against the plan (a hit exactly when the
// plan resubmits a completed job) and against earlier bodies of the
// same digest, and fetches each new digest's body again now that the
// timed phase is over.
func (v *verifier) observe(ctx context.Context, dr *loadgen, outs []outcome) {
	for _, o := range outs {
		v.res.attempted++
		r := v.plan[o.caller][o.k]
		if o.err != nil {
			v.res.failed++
			v.res.fail("caller %d request %d (%s): %v", o.caller, o.k, r.kind, o.err)
			continue
		}
		if o.hit != (r.kind == kindRepeat) {
			v.res.failed++
			v.res.fail("caller %d request %d (%s): hit=%v, the plan says otherwise", o.caller, o.k, r.kind, o.hit)
			continue
		}
		if s, ok := v.results[o.digest]; ok {
			if s.sum != o.sum {
				v.res.failed++
				v.res.fail("digest %s served two different bodies", o.digest)
			}
			continue
		}
		data, digest, err := dr.result(ctx, o.jobID)
		if err != nil || digest != o.digest || sha256.Sum256(data) != o.sum {
			v.res.failed++
			v.res.fail("job %s: result changed after the run: %v", o.jobID, err)
			continue
		}
		v.results[o.digest] = &seen{sum: o.sum, jobID: o.jobID, req: r, data: data}
		v.order = append(v.order, o.digest)
	}
}

// verify runs every distinct sub-run directly through parallel.Run and
// compares each distinct daemon result with the direct record (for a
// two-input job, with core.MergeRecords of the two), program and
// input names set aside.
func (v *verifier) verify(ctx context.Context) {
	var jobs []parallel.Job
	for _, dg := range v.order {
		r := v.results[dg].req
		for i := range r.inputs {
			k := keyOf(r, i)
			if _, ok := v.records[k]; ok {
				continue
			}
			v.records[k] = nil
			v.keys = append(v.keys, k)
			jobs = append(jobs, parallel.Job{
				Workload: v.progs[r.prog].w,
				Input:    workloads.Input{Name: k.String(), Args: r.inputs[i]},
				Options:  directOptions(r.cfg),
			})
		}
	}
	// Checking is not load: it runs after the timed phase, as wide as
	// the process may go.
	var buf bytes.Buffer
	for i, jr := range parallel.Run(ctx, min(2, runtime.GOMAXPROCS(0)), jobs) {
		k := v.keys[i]
		if jr.Err != nil {
			v.res.fail("direct run %s: %v", k, jr.Err)
			continue
		}
		buf.Reset()
		rec, err := roundTrip(jr.Profile.Record(jr.Job.Workload.Name, jr.Job.Input.Name), &buf)
		if err != nil {
			v.res.fail("direct run %s: %v", k, err)
			continue
		}
		v.records[k] = &verified{rec: rec, insts: jr.Exec.InstCount}
	}
	for _, dg := range v.order {
		s := v.results[dg]
		want, err := v.expected(s.req)
		if err != nil {
			v.res.failed++
			v.res.fail("digest %s: %v", dg, err)
			continue
		}
		got, err := core.ReadProfileRecord(bytes.NewReader(s.data))
		if err != nil {
			v.res.failed++
			v.res.fail("digest %s: %v", dg, err)
			continue
		}
		if !sameRecord(got, want) {
			v.res.failed++
			v.res.fail("job %s (%s, %d inputs): daemon record differs from the direct run", s.jobID, s.req.kind, len(s.req.inputs))
		}
	}
}

// expected is the record a direct run gives for r.
func (v *verifier) expected(r request) (*core.ProfileRecord, error) {
	var out *core.ProfileRecord
	for i := range r.inputs {
		d := v.records[keyOf(r, i)]
		if d == nil {
			return nil, fmt.Errorf("no direct record for %s", keyOf(r, i))
		}
		if out == nil {
			out = d.rec
			continue
		}
		var err error
		if out, err = core.MergeRecords(out, d.rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ranInsts is the guest instructions the daemon executed for a miss:
// every input of a fresh job, the new input of a pair.
func (v *verifier) ranInsts(o outcome) float64 {
	r := v.plan[o.caller][o.k]
	d := v.records[keyOf(r, len(r.inputs)-1)]
	if d == nil {
		return 0
	}
	return float64(d.insts)
}

// roundTrip serializes rec and parses it back, the form the daemon's
// merge consumes.
func roundTrip(rec *core.ProfileRecord, buf *bytes.Buffer) (*core.ProfileRecord, error) {
	if err := rec.WriteJSON(buf); err != nil {
		return nil, err
	}
	return core.ReadProfileRecord(bytes.NewReader(buf.Bytes()))
}

// sameRecord compares two records with program and input names (and
// merge provenance, which is made of them) set aside.
func sameRecord(a, b *core.ProfileRecord) bool {
	var ab, bb bytes.Buffer
	strip := func(r *core.ProfileRecord, buf *bytes.Buffer) {
		c := *r
		c.Program, c.Input, c.Merged = "", "", nil
		c.WriteJSON(buf)
	}
	strip(a, &ab)
	strip(b, &bb)
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// replay times, outside the daemon, the layers it runs internally —
// on the traced requests and their results — and replays the first
// distinct sub-runs through the traced job path and bare, for the vm
// and core numbers. Its spans hang under their own root.
func (v *verifier) replay(ctx context.Context, tr *Tracer, outs []outcome, id int, m map[string]dist) {
	root := tr.Begin("bench.replay", 0, 0)
	defer tr.End(root)
	in := func(name string, f func()) {
		sp := tr.Begin(name, root, id)
		f()
		tr.End(sp)
	}
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		id++
		r := v.plan[o.caller][o.k]
		image := v.progs[r.prog].image
		var prog *program.Program
		var err error
		in("program.load", func() { prog, err = program.Load(bytes.NewReader(image)) })
		if err == nil {
			in("analysis.verify", func() { err = analysis.Verify(prog).Err() })
		}
		jc := wireConfig(r.cfg)
		if err == nil {
			in("serve.normalize", func() { err = jc.Normalize() })
		}
		if err == nil {
			in("serve.digest", func() { _, err = serve.DigestOf(image, r.inputs, &jc) })
		}
		if err != nil {
			v.res.fail("replaying request %d of caller %d: %v", o.k, o.caller, err)
		}
	}
	probe := filepath.Join(v.workDir, "atomicio-probe.json")
	for _, dg := range v.order {
		s := v.results[dg]
		id++
		var err error
		in("core.read_record", func() { _, err = core.ReadProfileRecord(bytes.NewReader(s.data)) })
		if err == nil {
			in("atomicio.write", func() { err = atomicio.WriteFileBytes(probe, s.data) })
		}
		if err == nil && len(s.req.inputs) == 2 {
			a, b := v.records[keyOf(s.req, 0)], v.records[keyOf(s.req, 1)]
			if a != nil && b != nil {
				in("core.merge_records", func() { _, err = core.MergeRecords(a.rec, b.rec) })
			}
		}
		if err != nil {
			v.res.fail("replaying result %s: %v", dg, err)
		}
	}

	var counts passCounts
	var bareNS, bareInsts float64
	var recKB []float64
	var buf bytes.Buffer
	for _, k := range v.keys[:min(layerReplays, len(v.keys))] {
		w := v.progs[k.prog].w
		args := append([]int64(nil), w.Test.Args...)
		args[0] = k.seed
		id++
		buf.Reset()
		t := tracedJob(ctx, tr, root, id, parallel.Job{
			Workload: w, Input: workloads.Input{Name: k.String(), Args: args}, Options: directOptions(k.cfg)}, &buf)
		id++
		b := bareRun(ctx, tr, root, id, w, args)
		if t.err != nil || b.err != nil || b.output != t.exec.Output || b.insts != t.exec.InstCount {
			v.res.fail("replaying %s: traced and bare runs disagree: %v, %v", k, t.err, b.err)
			continue
		}
		counts.add(t.exec, t.prof)
		recKB = append(recKB, float64(buf.Len())/1024)
		bareNS += b.ns
		bareInsts += float64(b.insts)
	}
	layer := perJob(tr.Spans())
	us := func(name string) dist { return median(scaled(layer[name], 1e3)) }
	for _, name := range []string{"program.load", "analysis.verify", "serve.normalize", "serve.digest",
		"core.read_record", "atomicio.write", "core.merge_records",
		"parallel.acquire", "parallel.release", "atom.prepare", "core.profile", "core.record"} {
		m[name+"_us"] = us(name)
	}
	m["core.record_kb"] = median(recKB)
	dispatch := bareNS / bareInsts
	m["vm.dispatch_ns_per_inst"] = exact(dispatch, int(bareInsts))
	m["core.hook_ns_per_inst"] = exact(sum(layer["vm.run"])/float64(counts.insts)-dispatch, int(counts.insts))
	counts.report(m)
}
