package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"valueprof/internal/atomicio"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// Job states. queued → running → one of the terminal states; a daemon
// shutdown moves a running job back to queued (eviction) with its
// checkpoint persisted, and recovery re-enqueues it.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	StateSalvaged  = "salvaged"
)

// terminalState reports whether a job in state will never run again.
func terminalState(state string) bool {
	switch state {
	case StateCompleted, StateFailed, StateCancelled, StateSalvaged:
		return true
	}
	return false
}

// WireError is the uniform error body: {"error":{"class":...,
// "message":...}}. Classes are part of the API contract (docs/serve.md).
type WireError struct {
	Class   string `json:"class"`
	Message string `json:"message"`
}

// Wire error classes.
const (
	ClassBadRequest     = "bad-request"     // malformed JSON or request shape
	ClassInvalidProgram = "invalid-program" // image/asm undecodable or verifier errors
	ClassConfig         = "config"          // invalid or incompatible job config
	ClassOversized      = "oversized"       // request body over the server limit
	ClassUnknownJob     = "unknown-job"     // no such job id
	ClassNotReady       = "not-ready"       // result requested before completion
	ClassMethod         = "method"          // HTTP method not allowed
	ClassOverloaded     = "overloaded"      // per-client queue full
	ClassClosing        = "closing"         // submitted during shutdown
	ClassBudget         = "budget"          // step/deadline/retry budget exhausted
	ClassFaulted        = "faulted"         // guest program faulted
	ClassCancelled      = "cancelled"       // cancelled by the client
	ClassExpired        = "expired"         // a completed job's result is no longer cached
	ClassInternal       = "internal"        // daemon-side failure
)

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id} and
// the final SSE "done" event). Every field is deterministic for a
// given submission history, which is what lets the golden tests pin
// exact bodies.
type JobStatus struct {
	ID         string     `json:"id"`
	Client     string     `json:"client"`
	Digest     string     `json:"digest"`
	State      string     `json:"state"`
	Cached     bool       `json:"cached,omitempty"`
	Inputs     int        `json:"inputs"`
	InputsDone int        `json:"inputsDone"`
	Attempts   int        `json:"attempts,omitempty"`
	Resumed    int        `json:"resumed,omitempty"`
	Error      *WireError `json:"error,omitempty"`
}

// ProgressEvent is one SSE "progress" datum: a partial view of the
// running sub-run, emitted every PulseEvery instructions and when a
// sub-run is served from the cache.
type ProgressEvent struct {
	Seq     int  `json:"seq"`
	Input   int  `json:"input"`
	Inputs  int  `json:"inputs"`
	Attempt int  `json:"attempt"`
	Resumed bool `json:"resumed,omitempty"`
	// InstCount is the guest instruction count; Values the number of
	// profiled values delivered so far. Their ratio falling over time
	// is the convergence signal for sampled jobs.
	InstCount uint64 `json:"instCount"`
	Values    uint64 `json:"values"`
	// CachedInput marks a sub-run satisfied from the content cache.
	CachedInput bool `json:"cachedInput,omitempty"`
}

// job is one submitted profiling job.
type job struct {
	ID     string
	Seq    uint64
	Client string
	Digest string

	Prog   *program.Program
	Image  []byte
	Inputs [][]int64
	Config JobConfig

	// Scheduling bookkeeping (written under the scheduler's lock).
	enqueuedAt time.Time
	submitSeq  uint64

	cancel context.CancelFunc
	ctx    context.Context

	mu         sync.Mutex
	state      string
	cached     bool
	attempts   int
	resumed    int
	inputsDone int
	errClass   string
	errMsg     string
	// result holds a salvaged partial record; completed results are
	// served from the content cache instead.
	result []byte

	// Event fan-out. Subscriber channels are buffered; a slow consumer
	// loses intermediate progress events, never the stream end.
	subs     []chan ProgressEvent
	eventSeq int
	finished bool
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.ID,
		Client:     j.Client,
		Digest:     j.Digest,
		State:      j.state,
		Cached:     j.cached,
		Inputs:     len(j.Inputs),
		InputsDone: j.inputsDone,
		Attempts:   j.attempts,
		Resumed:    j.resumed,
	}
	if j.errClass != "" {
		st.Error = &WireError{Class: j.errClass, Message: j.errMsg}
	}
	return st
}

// subscribe registers a progress listener. The returned channel closes
// when the job reaches a terminal state (or the daemon shuts down);
// subscribers of an already-finished job get an immediately-closed
// channel and read the outcome from the job status.
func (j *job) subscribe() (<-chan ProgressEvent, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan ProgressEvent, 64)
	if j.finished {
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
}

// emit broadcasts one progress event, dropping it for subscribers whose
// buffers are full (progress is advisory; status and result are not).
func (j *job) emit(ev ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.eventSeq++
	ev.Seq = j.eventSeq
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishEvents closes every subscriber channel exactly once.
func (j *job) finishEvents() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// manifest is the persisted form of a job under <state>/jobs/<id>.json.
type manifest struct {
	ID         string          `json:"id"`
	Seq        uint64          `json:"seq"`
	Client     string          `json:"client"`
	Digest     string          `json:"digest"`
	State      string          `json:"state"`
	Cached     bool            `json:"cached,omitempty"`
	Image      []byte          `json:"image"`
	Inputs     [][]int64       `json:"inputs"`
	Config     JobConfig       `json:"config"`
	InputsDone int             `json:"inputsDone"`
	Attempts   int             `json:"attempts,omitempty"`
	Resumed    int             `json:"resumed,omitempty"`
	ErrClass   string          `json:"errClass,omitempty"`
	ErrMsg     string          `json:"errMsg,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// manifestPath is the job's on-disk manifest location.
func manifestPath(stateDir, id string) string {
	return filepath.Join(stateDir, "jobs", id+".json")
}

// checkpointPath is the job's in-flight sub-run checkpoint location.
func checkpointPath(stateDir, id string) string {
	return filepath.Join(stateDir, "jobs", id+".ckpt")
}

// persist writes the job manifest atomically; a no-op without a state
// directory. persistedState overrides the stored state (eviction
// persists a running job as queued so recovery re-enqueues it).
func (j *job) persist(stateDir, persistedState string) error {
	if stateDir == "" {
		return nil
	}
	j.mu.Lock()
	m := manifest{
		ID:         j.ID,
		Seq:        j.Seq,
		Client:     j.Client,
		Digest:     j.Digest,
		State:      j.state,
		Cached:     j.cached,
		Image:      j.Image,
		Inputs:     j.Inputs,
		Config:     j.Config,
		InputsDone: j.inputsDone,
		Attempts:   j.attempts,
		Resumed:    j.resumed,
		ErrClass:   j.errClass,
		ErrMsg:     j.errMsg,
		Result:     j.result,
	}
	j.mu.Unlock()
	if persistedState != "" {
		m.State = persistedState
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("serve: encoding manifest %s: %w", j.ID, err)
	}
	return atomicio.WriteFileBytes(manifestPath(stateDir, j.ID), data)
}

// loadManifest reads one persisted job; a manifest is named after its
// job's ID.
func loadManifest(path string) (*job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j, err := decodeManifest(data)
	if err == nil && filepath.Base(path) != j.ID+".json" {
		err = fmt.Errorf("holds job %q", j.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: manifest %s: %w", path, err)
	}
	return j, nil
}

// decodeManifest rebuilds a job from its manifest, decoding the program
// from its canonical image. The manifest must describe a job the daemon
// could have accepted: at least one input, inputsDone within them, a
// program that fits its config's memory, and a config that normalizes
// to one whose digest, with the image and inputs, is the job's digest.
// A damaged manifest is refused rather than recovered into a job that
// would run something else under its digest, or crash the worker.
func decodeManifest(data []byte) (*job, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if len(m.Inputs) == 0 || m.InputsDone < 0 || m.InputsDone > len(m.Inputs) {
		return nil, fmt.Errorf("%d of %d inputs done", m.InputsDone, len(m.Inputs))
	}
	prog, err := program.Load(bytesReader(m.Image))
	if err == nil {
		// Submission checks the fit; a manifest written before it did
		// must not crash the worker that recovers it.
		err = vm.CheckFit(prog, m.Config.runOptions().EffectiveMemSize())
	}
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	if err := m.Config.Normalize(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if d, err := DigestOf(m.Image, m.Inputs, &m.Config); err != nil || d != m.Digest {
		return nil, fmt.Errorf("digest %s does not match its content", m.Digest)
	}
	j := &job{
		ID:         m.ID,
		Seq:        m.Seq,
		Client:     m.Client,
		Digest:     m.Digest,
		Prog:       prog,
		Image:      m.Image,
		Inputs:     m.Inputs,
		Config:     m.Config,
		state:      m.State,
		cached:     m.Cached,
		attempts:   m.Attempts,
		resumed:    m.Resumed,
		inputsDone: m.InputsDone,
		errClass:   m.ErrClass,
		errMsg:     m.ErrMsg,
		result:     m.Result,
	}
	if terminalState(j.state) {
		j.finished = true
	} else {
		// Anything non-terminal — queued, or running when the previous
		// process died — goes back on the queue.
		j.state = StateQueued
	}
	return j, nil
}
