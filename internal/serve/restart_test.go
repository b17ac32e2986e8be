package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// This file is the restart-survival suite: the daemon is stopped
// in-process mid-job at seeded chaos-chosen points (after the n-th
// progress pulse, i.e. at an instruction boundary the seed selects), a
// fresh daemon is built over the same state directory, and the job's
// eventual result must be byte-identical to the profile an
// uninterrupted daemon produces — resumable configs by resuming from
// the persisted VPCKPT1 checkpoint, convergent configs by
// deterministically rerunning from scratch.

// oracleResult runs req on a pristine, never-interrupted daemon and
// returns the result bytes.
func oracleResult(t *testing.T, req *JobRequest) []byte {
	t.Helper()
	s := newServer(t, Options{Workers: 1, StateDir: t.TempDir(), PulseEvery: 2000, CheckpointEvery: 2000})
	j, cached, rerr := s.submit(req)
	if rerr != nil || cached {
		t.Fatalf("oracle submit: cached=%v err=%v", cached, rerr)
	}
	st := waitTerminal(t, s, j.ID)
	if st.State != StateCompleted {
		t.Fatalf("oracle job: %+v", st)
	}
	rec, ok := s.cache.get(j.Digest)
	if !ok {
		t.Fatal("oracle result missing from cache")
	}
	return rec
}

// runWithSeededKills drives req to completion across daemon restarts:
// a seeded number of rounds each start a daemon on stateDir, wait for
// a seeded number of progress pulses, and shut the daemon down —
// evicting the running job at that instruction boundary. The final
// round lets the recovered job run to its terminal state. Returns the
// final status and result bytes.
func runWithSeededKills(t *testing.T, stateDir string, req *JobRequest, seed uint64) (JobStatus, []byte) {
	t.Helper()
	kills := int(2 + splitmix64(&seed)%2)
	var jobID string
	for round := 0; ; round++ {
		s, err := New(Options{Workers: 1, StateDir: stateDir, PulseEvery: 2000, CheckpointEvery: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			j, cached, rerr := s.submit(req)
			if rerr != nil || cached {
				t.Fatalf("submit: cached=%v err=%v", cached, rerr)
			}
			jobID = j.ID
		}
		j, ok := s.jobByID(jobID)
		if !ok {
			t.Fatalf("round %d: job %s not recovered", round, jobID)
		}

		if round < kills {
			// The seed picks the kill point: stop after 1-4 progress
			// pulses, i.e. at a seeded instruction boundary. If the job
			// finishes first, the chaos schedule ran out of run to
			// interrupt and the kill is a no-op.
			pulses := int(1 + splitmix64(&seed)%4)
			ch, unsub := j.subscribe()
			seen := 0
			deadline := time.NewTimer(30 * time.Second)
		wait:
			for seen < pulses {
				select {
				case _, open := <-ch:
					if !open {
						break wait
					}
					seen++
				case <-deadline.C:
					t.Fatalf("round %d: no progress from job %s", round, jobID)
				}
			}
			deadline.Stop()
			unsub()
		} else {
			waitTerminal(t, s, jobID)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d shutdown: %v", round, err)
		}
		if st := j.status(); terminalState(st.State) {
			// Re-open a daemon over the final state to serve the result
			// (also exercising recovery of a terminal manifest).
			s2 := newServer(t, Options{NoWorkers: true, StateDir: stateDir})
			j2, ok := s2.jobByID(jobID)
			if !ok {
				t.Fatalf("terminal job %s lost after restart", jobID)
			}
			rec, ok := s2.cache.get(j2.Digest)
			if !ok && st.State == StateCompleted {
				t.Fatalf("completed job %s has no cached result", jobID)
			}
			return j2.status(), rec
		}
	}
}

// TestRestartResumesByteIdentical is the core durability property: a
// resumable job killed and restarted repeatedly produces exactly the
// bytes of its uninterrupted oracle run, with at least one attempt
// having resumed from a checkpoint.
func TestRestartResumesByteIdentical(t *testing.T) {
	req := loopRequest("chaos", 20000)
	req.Config = JobConfig{MaxAttempts: 3, MemSize: 1 << 16}
	want := oracleResult(t, req)

	st, got := runWithSeededKills(t, t.TempDir(), req, 0x5eed0001)
	if st.State != StateCompleted {
		t.Fatalf("job did not complete: %+v", st)
	}
	if st.Resumed == 0 {
		t.Fatalf("job completed without ever resuming from a checkpoint: %+v", st)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from uninterrupted oracle:\n got %d bytes: %.200s\nwant %d bytes: %.200s",
			len(got), got, len(want), want)
	}
}

// TestRestartMultiInputByteIdentical extends the property to a
// multi-input job: interrupted sub-runs resume, completed sub-runs are
// reused from the content cache, and the merged record still matches
// the oracle byte for byte.
func TestRestartMultiInputByteIdentical(t *testing.T) {
	req := loopRequest("chaos", 12000, 12001)
	req.Config = JobConfig{MaxAttempts: 3, MemSize: 1 << 16}
	want := oracleResult(t, req)

	st, got := runWithSeededKills(t, t.TempDir(), req, 0x5eed0002)
	if st.State != StateCompleted {
		t.Fatalf("job did not complete: %+v", st)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed multi-input result differs from oracle:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestRestartConvergentRerunsFresh covers the non-resumable path: a
// convergent-sampling job's interrupted runs restart from scratch
// (sampler state is not checkpointed), and determinism still makes the
// final profile byte-identical to the oracle, with zero resumes.
func TestRestartConvergentRerunsFresh(t *testing.T) {
	req := loopRequest("chaos", 20000)
	req.Config = JobConfig{
		Convergent:  &WireConvergent{BurstLen: 500, InitialSkip: 1000, MaxSkip: 8000, Epsilon: 0.05},
		MaxAttempts: 3,
		MemSize:     1 << 16,
	}
	want := oracleResult(t, req)

	st, got := runWithSeededKills(t, t.TempDir(), req, 0x5eed0003)
	if st.State != StateCompleted {
		t.Fatalf("job did not complete: %+v", st)
	}
	if st.Resumed != 0 {
		t.Fatalf("convergent job claims %d resumes; its state is not checkpointable", st.Resumed)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rerun convergent result differs from oracle:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestRestartRecomputesCorruptCacheEntry: a job's cache file damaged
// on disk between daemons (here truncated) is not served as a result.
// The restarted daemon finds the entry invalid and drops it, so the
// finished job's result answers class expired (410). Resubmitting the
// request reruns it, and the result served is byte-identical to the
// first daemon's.
func TestRestartRecomputesCorruptCacheEntry(t *testing.T) {
	req := loopRequest("dave", 500)
	stateDir := t.TempDir()
	opts := Options{Workers: 1, StateDir: stateDir}

	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	code, st := submitHTTP(t, hs1.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if final := waitTerminal(t, s1, st.ID); final.State != StateCompleted {
		t.Fatalf("first job: %+v", final)
	}
	code, want := call(t, http.MethodGet, hs1.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("first result: %d\n%s", code, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = s1.Shutdown(ctx)
	cancel()
	hs1.Close()
	if err != nil {
		t.Fatal(err)
	}

	path := s1.cache.path(st.Digest)
	if err := os.Truncate(path, int64(len(want)/2)); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newHTTPServer(t, opts)
	code, body := call(t, http.MethodGet, hs2.URL+"/v1/jobs/"+st.ID+"/result", nil)
	checkGoldenResponse(t, "err_result_expired.txt", code, body)

	code, st2 := submitHTTP(t, hs2.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit over a truncated cache entry: %d (%+v), want a queued rerun", code, st2)
	}
	if final := waitTerminal(t, s2, st2.ID); final.State != StateCompleted {
		t.Fatalf("rerun job: %+v", final)
	}
	code, got := call(t, http.MethodGet, hs2.URL+"/v1/jobs/"+st2.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("rerun result: %d\n%s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rerun result differs from the first daemon's:\n got %.200s\nwant %.200s", got, want)
	}
	s2.cache.mu.Lock()
	corrupt := s2.cache.corrupt
	s2.cache.mu.Unlock()
	if corrupt != 1 {
		t.Errorf("corrupt entries counted %d, want 1", corrupt)
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, want) {
		t.Errorf("cache file after the rerun: err=%v, whole=%v", err, bytes.Equal(disk, want))
	}
}
