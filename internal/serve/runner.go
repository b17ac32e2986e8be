package serve

import (
	"fmt"
	"math"
	"os"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/atomicio"
	"valueprof/internal/core"
	"valueprof/internal/supervise"
	"valueprof/internal/vm"
)

// execute runs one dequeued job to a terminal state (or back to queued
// when the daemon is evicting it for shutdown). A job is a sequence of
// sub-runs, one per input; each sub-run is content-addressed on its
// own, so a multi-input job reuses any sub-run another job already
// paid for, and the final result is the deterministic merge of the
// sub-records in input order.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued; its terminal state already stands.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	start := j.inputsDone
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")

	progName := "prog-" + shortHex(j.Image)
	for i := start; i < len(j.Inputs); i++ {
		if j.ctx.Err() != nil {
			s.interrupted(j)
			return
		}
		input := j.Inputs[i]
		subDigest, err := DigestOf(j.Image, [][]int64{input}, &j.Config)
		if err != nil {
			s.fail(j, ClassInternal, "digesting input %d: %v", i, err)
			return
		}
		if _, hit := s.cache.get(subDigest); hit {
			j.emit(ProgressEvent{Input: i, Inputs: len(j.Inputs), CachedInput: true})
		} else {
			rec, partial, class, msg := s.runOne(j, progName, i, input)
			switch class {
			case "":
				if err := s.cache.put(subDigest, rec); err != nil {
					s.fail(j, ClassInternal, "caching input %d: %v", i, err)
					return
				}
			case classEvicted:
				s.evict(j)
				return
			case ClassCancelled:
				s.interrupted(j)
				return
			default:
				if partial != nil {
					s.salvage(j, partial, class, msg)
					return
				}
				s.fail(j, class, "%s", msg)
				return
			}
		}
		s.removeCheckpoint(j)
		j.mu.Lock()
		j.inputsDone = i + 1
		j.mu.Unlock()
		j.persist(s.opts.StateDir, "")
	}

	final, err := s.mergeSubRuns(j)
	if err != nil {
		s.fail(j, ClassInternal, "%v", err)
		return
	}
	if err := s.cache.put(j.Digest, final); err != nil {
		s.fail(j, ClassInternal, "caching result: %v", err)
		return
	}
	j.mu.Lock()
	j.state = StateCompleted
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
}

// mergeSubRuns folds the job's cached sub-records — always parsed back
// from their serialized bytes, so a recovered daemon and an
// uninterrupted one feed the merge identical inputs — into the final
// record's bytes. A single-input job's record passes through verbatim
// (its job digest equals its sub-run digest).
func (s *Server) mergeSubRuns(j *job) ([]byte, error) {
	var merged *core.ProfileRecord
	for i, input := range j.Inputs {
		subDigest, err := DigestOf(j.Image, [][]int64{input}, &j.Config)
		if err != nil {
			return nil, err
		}
		b, ok := s.cache.get(subDigest)
		if !ok {
			return nil, fmt.Errorf("sub-run %d missing from cache", i)
		}
		if len(j.Inputs) == 1 {
			return b, nil
		}
		rec, err := core.ReadProfileRecord(bytesReader(b))
		if err != nil {
			return nil, fmt.Errorf("parsing sub-run %d: %w", i, err)
		}
		if merged == nil {
			merged = rec
			continue
		}
		if merged, err = core.MergeRecords(merged, rec); err != nil {
			return nil, err
		}
	}
	return merged.JSON(), nil
}

// classEvicted is the internal (never wire-visible) class marking a
// sub-run interrupted by daemon shutdown.
const classEvicted = "evicted"

// runOne executes one sub-run (one input) as a single supervised job:
// internal/supervise owns the attempts, the checkpoint-carried resume,
// and the classification, and subRunError maps its report onto the
// wire. It returns the completed record's serialized bytes, or a
// non-empty wire error class with the salvageable partial record (nil
// unless SalvagePartial kept one).
func (s *Server) runOne(j *job, progName string, inputIdx int, input []int64) (rec, partial []byte, class, msg string) {
	cfg := &j.Config
	sj := supervise.Job{
		Name:      progName,
		InputName: inputName(input),
		Prog:      j.Prog,
		Input:     input,
		Options:   cfg.coreOptions(),
		Run:       cfg.runOptions(),
	}
	if cfg.DeadlineMs > 0 {
		sj.Run.Deadline = time.Now().Add(time.Duration(cfg.DeadlineMs) * time.Millisecond)
	}
	h := &subRun{s: s, j: j, input: inputIdx, prog: sj.Name, inName: sj.InputName}
	if s.opts.StateDir != "" && supervise.CanResume(sj.Options) {
		h.ckptPath = checkpointPath(s.opts.StateDir, j.ID)
		// The restart-survival path: the first attempt resumes from the
		// checkpoint a previous daemon left. A read error leaves none
		// (usually there is no file), and supervise starts fresh from a
		// damaged checkpoint or another input's.
		sj.Checkpoint, _ = os.ReadFile(h.ckptPath)
	}
	r := supervise.Run(j.ctx, 1, []supervise.Job{sj}, supervise.Policy{
		MaxAttempts:     cfg.MaxAttempts,
		AttemptDeadline: time.Duration(cfg.AttemptDeadlineMs) * time.Millisecond,
		Resume:          true,
		SalvagePartial:  cfg.SalvagePartial,
		Hooks:           h,
	}).Jobs[0]
	j.mu.Lock()
	j.attempts += r.Attempts
	j.resumed += r.Resumed
	j.mu.Unlock()

	// An interrupt is neither a result nor a budget failure, even when
	// supervise kept a partial profile for it.
	if r.Class == supervise.ClassAborted {
		return nil, nil, s.interruptClass(), ""
	}
	if r.State == supervise.StateCompleted {
		return r.Profile.Record(sj.Name, sj.InputName).JSON(), nil, "", ""
	}
	if r.State == supervise.StateSalvaged {
		pr := r.Profile.Record(sj.Name, sj.InputName)
		pr.Salvaged = true
		pr.Outcome = r.Outcome.String()
		partial = pr.JSON()
	}
	class, msg = subRunError(&r, cfg, inputIdx)
	return nil, partial, class, msg
}

// subRunError maps a failed sub-run's supervised ending — its class and
// its last attempt's outcome — to the wire error class and message:
//
//	class      outcome    wire      cause
//	permanent  faulted    faulted   the same fault at the same pc and instruction twice
//	budget     faulted    faulted   attempts ran out on guest faults
//	budget     limit      budget    the absolute stepLimit was reached
//	budget     deadline   budget    a resumed attempt made no progress, or attempts ran out
//	budget     cancelled  budget    attempts ran out
//
// A sub-run whose attempt never ran (profiler setup failed) is
// internal.
func subRunError(r *supervise.JobReport, cfg *JobConfig, input int) (class, msg string) {
	switch {
	case r.Exec == nil:
		return ClassInternal, fmt.Sprintf("input %d: %v", input, r.Err)
	case r.Outcome == vm.OutcomeFaulted && r.Class == supervise.ClassPermanent:
		return ClassFaulted, fmt.Sprintf("input %d: deterministic fault: %v", input, r.Err)
	case r.Outcome == vm.OutcomeFaulted:
		return ClassFaulted, fmt.Sprintf("input %d: %v", input, r.Err)
	case r.Outcome == vm.OutcomeLimit:
		return ClassBudget, fmt.Sprintf("input %d: instruction budget %d exhausted", input, cfg.StepLimit)
	case r.Outcome == vm.OutcomeDeadline && r.Attempts < cfg.MaxAttempts:
		return ClassBudget, fmt.Sprintf("input %d: no forward progress under attempt deadline", input)
	}
	return ClassBudget, fmt.Sprintf("input %d: %d attempts exhausted (last outcome %s)", input, r.Attempts, r.Outcome)
}

// subRun is the supervise.Hooks of one sub-run, behind progress
// streaming and restart survival. ckptPath is set for resumable configs
// on a durable server; the checkpoint there is the one the next daemon
// resumes from.
type subRun struct {
	s            *Server
	j            *job
	input        int
	prog, inName string
	ckptPath     string // "" = no persistence
}

// AttemptTool implements supervise.Hooks with one step routine per
// attempt: every PulseEvery instructions it emits a ProgressEvent, and
// when persisting, every CheckpointEvery instructions it snapshots the
// run (each snapshot copies the guest memory image, so that interval is
// much coarser). It asks to run only at the earlier of those two due
// points. Like core.Checkpointer it arms lazily, so a resumed attempt
// pulses one full interval after its resume point.
func (h *subRun) AttemptTool(_, attempt int, vp *core.ValueProfiler) atom.Tool {
	every, ckEvery := h.s.opts.PulseEvery, h.s.opts.CheckpointEvery
	var ck *core.Checkpointer
	if h.ckptPath != "" {
		ck = core.NewCheckpointer(vp, h.ckptPath, ckEvery, h.prog, h.inName)
	}
	return atom.ToolFunc(func(ix *atom.Instrumenter) {
		var next, ckNext uint64
		resumed := false
		ix.AddStep(func(v *vm.VM) (uint64, error) {
			if next == 0 {
				// The first step follows the attempt's first instruction,
				// so an attempt that restored a checkpoint is already past
				// instruction 1.
				resumed = v.InstCount > 1
				next = v.InstCount + every
				ckNext = math.MaxUint64
				if ck != nil {
					ckNext = v.InstCount + ckEvery
				}
				return min(next, ckNext), nil
			}
			if v.InstCount >= next {
				next = v.InstCount + every
				h.j.emit(ProgressEvent{
					Input:     h.input,
					Inputs:    len(h.j.Inputs),
					Attempt:   attempt,
					Resumed:   resumed,
					InstCount: v.InstCount,
					Values:    v.AnalysisCalls,
				})
			}
			if ck != nil && v.InstCount >= ckNext {
				ckNext = v.InstCount + ckEvery
				// A failed snapshot (full disk) degrades restart
				// granularity, never the run.
				ck.SnapshotNow(v)
			}
			return min(next, ckNext), nil
		})
	})
}

// MangleCheckpoint implements supervise.Hooks: the checkpoint carried
// to the next attempt is persisted unchanged, so a daemon stopped now —
// evicted by shutdown or crashed — resumes from it.
func (h *subRun) MangleCheckpoint(_, _ int, data []byte) []byte {
	if h.ckptPath != "" {
		// Like a failed periodic snapshot, a failed write only costs
		// restart granularity.
		atomicio.WriteFileBytes(h.ckptPath, data)
	}
	return data
}

// interruptClass distinguishes daemon shutdown (eviction) from a
// client cancel.
func (s *Server) interruptClass() string {
	if s.closing.Load() {
		return classEvicted
	}
	return ClassCancelled
}

// evict puts a shutdown-interrupted job back in the queued state; its
// checkpoint is already on disk, so the next daemon resumes it.
func (s *Server) evict(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
}

// interrupted finalizes a job whose context was cancelled: eviction
// when the daemon is closing, a client cancel otherwise.
func (s *Server) interrupted(j *job) {
	if s.closing.Load() {
		s.evict(j)
		return
	}
	j.mu.Lock()
	j.state = StateCancelled
	j.errClass = ClassCancelled
	j.errMsg = "cancelled by client"
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}

// fail finalizes a job with a wire error class.
func (s *Server) fail(j *job, class, format string, args ...any) {
	j.mu.Lock()
	j.state = StateFailed
	j.errClass = class
	j.errMsg = fmt.Sprintf(format, args...)
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}

// salvage finalizes a budget-exhausted job that kept its best partial
// profile: state "salvaged", the partial record served as the result,
// and the original failure preserved as the error.
func (s *Server) salvage(j *job, partial []byte, class, msg string) {
	j.mu.Lock()
	j.state = StateSalvaged
	j.errClass = class
	j.errMsg = msg
	j.result = partial
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}
