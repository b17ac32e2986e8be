// Package serve is the profiling-as-a-service layer: a long-running
// HTTP/JSON daemon (mounted by cmd/vprofd) that accepts profiling jobs
// — a VRISC program image, one or more input vectors, and a profiler
// config — validates them with analysis.Verify, runs each input as one
// internal/supervise job under the request's budgets, streams partial
// profiles and convergence progress over SSE, and serves merged
// results from a content-addressed profile cache keyed by the
// (program, inputs, config) digest.
//
// Multi-tenancy comes from per-client job queues served round-robin
// (one flooding client delays its own backlog, not everyone else's),
// request budgets reuse the vm control plane (step limits, deadlines),
// and in-flight jobs survive a restart: every CheckpointEvery
// instructions the runner persists a VPCKPT1 checkpoint, a SIGTERM
// shutdown evicts running jobs back to the queue, and recovery resumes
// them from the checkpoint — producing results byte-identical to an
// uninterrupted run (the restart-survival test pins this). See
// docs/serve.md for the endpoint contracts, error classes, and digest
// format.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"valueprof/internal/core"
)

// Options configures a Server.
type Options struct {
	// StateDir, when non-empty, makes the daemon durable: the content
	// cache, job manifests, and in-flight checkpoints live under it,
	// and New recovers and re-enqueues unfinished jobs found there.
	// Empty runs memory-only (tests, ephemeral services).
	StateDir string
	// Workers is the number of concurrent job runners; <= 0 selects 2.
	// 0 workers is selected explicitly with NoWorkers (queued jobs then
	// never run — useful for inspecting queue behavior).
	Workers int
	// NoWorkers starts the server without any runner goroutines.
	NoWorkers bool
	// MaxBody caps a request body in bytes; <= 0 selects 8 MiB.
	// Oversized submissions are rejected with class "oversized".
	MaxBody int64
	// PulseEvery is the instruction interval between progress events;
	// <= 0 selects 20000.
	PulseEvery uint64
	// CheckpointEvery is the instruction interval between in-flight
	// checkpoint persists (each snapshots the guest memory image, so
	// this is much coarser than PulseEvery); <= 0 selects
	// core.DefaultCheckpointEvery.
	CheckpointEvery uint64
	// MaxQueuedPerClient caps one tenant's queue depth; <= 0 selects
	// 256. A full queue rejects with class "overloaded".
	MaxQueuedPerClient int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.NoWorkers {
		o.Workers = 0
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 8 << 20
	}
	if o.PulseEvery == 0 {
		o.PulseEvery = 20000
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = core.DefaultCheckpointEvery
	}
	if o.MaxQueuedPerClient <= 0 {
		o.MaxQueuedPerClient = 256
	}
	return o
}

// Server is the profiling daemon: construct with New, mount Handler on
// an http.Server, and stop with Shutdown.
type Server struct {
	opts  Options
	cache *cache
	sched *scheduler

	mu      sync.Mutex
	jobs    map[string]*job
	nextSeq uint64

	runCtx  context.Context
	stopRun context.CancelFunc
	closing atomic.Bool
	wg      sync.WaitGroup
}

// New builds a server, recovers any persisted state, and starts the
// worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	c, err := newCache(opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("serve: cache: %w", err)
	}
	s := &Server{
		opts:    opts,
		cache:   c,
		sched:   newScheduler(),
		jobs:    make(map[string]*job),
		nextSeq: 1,
	}
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	if opts.StateDir != "" {
		if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.sched.next()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
	return s, nil
}

// recover reloads persisted jobs, re-enqueueing every non-terminal one
// in original submission order so recovered work keeps its queue
// position.
func (s *Server) recover() error {
	dir := filepath.Join(s.opts.StateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: recovering jobs: %w", err)
	}
	var recovered []*job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		j, err := loadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			// A torn manifest cannot happen (atomicio), but an operator-
			// damaged one should not brick the daemon: skip it.
			continue
		}
		recovered = append(recovered, j)
	}
	sort.Slice(recovered, func(i, k int) bool { return recovered[i].Seq < recovered[k].Seq })
	for _, j := range recovered {
		s.jobs[j.ID] = j
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
		if !terminalState(j.state) {
			j.ctx, j.cancel = context.WithCancel(s.runCtx)
			s.sched.enqueue(j, 0)
		}
	}
	return nil
}

// submit registers a validated job and queues it (or completes it
// immediately on a cache hit). It returns the job and whether the
// result came from the cache.
func (s *Server) submit(req *JobRequest) (*job, bool, *RequestError) {
	if s.closing.Load() {
		return nil, false, reqErr(ClassClosing, "server is shutting down")
	}
	prog, image, err := decodeProgram(req.Program)
	if err != nil {
		return nil, false, err.(*RequestError)
	}
	if len(req.Inputs) == 0 {
		return nil, false, reqErr(ClassConfig, "inputs must hold at least one input vector (use [[]] for no input)")
	}
	cfg := req.Config
	if nerr := cfg.Normalize(); nerr != nil {
		return nil, false, nerr.(*RequestError)
	}
	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	digest, derr := DigestOf(image, req.Inputs, &cfg)
	if derr != nil {
		return nil, false, reqErr(ClassInternal, "%v", derr)
	}

	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	j := &job{
		ID:     fmt.Sprintf("j-%d", seq),
		Seq:    seq,
		Client: client,
		Digest: digest,
		Prog:   prog,
		Image:  image,
		Inputs: req.Inputs,
		Config: cfg,
		state:  StateQueued,
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()

	if _, hit := s.cache.get(digest); hit {
		j.mu.Lock()
		j.state = StateCompleted
		j.cached = true
		j.inputsDone = len(j.Inputs)
		j.mu.Unlock()
		j.finishEvents()
		j.persist(s.opts.StateDir, "")
		return j, true, nil
	}

	j.ctx, j.cancel = context.WithCancel(s.runCtx)
	if !s.sched.enqueue(j, s.opts.MaxQueuedPerClient) {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		return nil, false, reqErr(ClassOverloaded, "client %q has %d queued jobs (limit)", client, s.opts.MaxQueuedPerClient)
	}
	j.persist(s.opts.StateDir, "")
	return j, false, nil
}

// jobByID returns a registered job.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob moves a queued or running job to cancelled; terminal jobs
// are left as they are (idempotent cancel).
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return
	}
	wasQueued := j.state == StateQueued
	j.state = StateCancelled
	j.errClass = ClassCancelled
	j.errMsg = "cancelled by client"
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	if wasQueued {
		// The runner never saw this job; finalize it here. A running
		// job's runner observes the cancelled context and finalizes.
		j.finishEvents()
		j.persist(s.opts.StateDir, "")
		s.removeCheckpoint(j)
	}
}

// Shutdown stops the daemon: no new submissions, queued jobs stay
// queued, running jobs are evicted at their next control boundary with
// their checkpoints persisted, and every worker exits. A server with a
// state directory can then be rebuilt with New to resume exactly where
// it stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.stopRun()
	s.sched.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	// Workers are gone; persist still-queued jobs (they were persisted
	// as queued at submit, but their inputsDone may have advanced) and
	// release their subscribers.
	for _, j := range s.sched.drain() {
		j.persist(s.opts.StateDir, StateQueued)
		j.finishEvents()
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.finishEvents()
	}
	return nil
}

// removeCheckpoint deletes the job's persisted in-flight checkpoint.
func (s *Server) removeCheckpoint(j *job) {
	if s.opts.StateDir == "" {
		return
	}
	os.Remove(checkpointPath(s.opts.StateDir, j.ID))
}

// CacheStats reports the content cache's entry count, hits, and misses
// (exposed by GET /v1/stats).
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats is the GET /v1/stats body.
type Stats struct {
	Jobs    int            `json:"jobs"`
	Cache   CacheStats     `json:"cache"`
	Clients []ClientReport `json:"clients"`
}

func (s *Server) stats() Stats {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	entries, hits, misses := s.cache.stats()
	return Stats{
		Jobs:    n,
		Cache:   CacheStats{Entries: entries, Hits: hits, Misses: misses},
		Clients: s.sched.report(),
	}
}
