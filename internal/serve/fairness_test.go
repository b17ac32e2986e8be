package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"valueprof/internal/asm"
	"valueprof/internal/core"
	"valueprof/internal/isa"
	"valueprof/internal/vm"
)

// The fairness suite pins the multi-tenant scheduling contract: a
// client flooding the daemon delays its own backlog, never another
// client's, with the bound stated in dispatch distances (how many jobs
// the scheduler served between a job's submission and its dispatch) —
// the machine-independent unit the /v1/stats report also exposes.

// TestSchedulerRoundRobinBound drives the scheduler directly: with a
// flood client 30 jobs deep, a quiet client's job is dispatched within
// two dispatches of its submission, every time.
func TestSchedulerRoundRobinBound(t *testing.T) {
	sched := newScheduler()
	for i := 0; i < 30; i++ {
		if !sched.enqueue(&job{ID: fmt.Sprintf("f-%d", i), Client: "flood"}, 0) {
			t.Fatal("enqueue failed")
		}
	}
	for i := 0; i < 3; i++ {
		if !sched.enqueue(&job{ID: fmt.Sprintf("q-%d", i), Client: "quiet"}, 0) {
			t.Fatal("enqueue failed")
		}
	}
	for {
		sched.mu.Lock()
		j := sched.pop()
		sched.mu.Unlock()
		if j == nil {
			break
		}
	}
	for _, r := range sched.report() {
		if r.Client != "quiet" {
			continue
		}
		if r.Dispatched != 3 {
			t.Fatalf("quiet dispatched %d of 3", r.Dispatched)
		}
		// Round-robin alternates flood/quiet once both exist, so a quiet
		// job never waits for more than its own predecessors plus one
		// flood job each.
		if r.MaxWaitDispatches > 6 {
			t.Errorf("quiet max dispatch distance %d; round-robin should bound it at 6", r.MaxWaitDispatches)
		}
	}
}

func TestSchedulerPerClientCap(t *testing.T) {
	sched := newScheduler()
	for i := 0; i < 4; i++ {
		if !sched.enqueue(&job{ID: fmt.Sprintf("j-%d", i), Client: "c"}, 4) {
			t.Fatalf("enqueue %d rejected under cap", i)
		}
	}
	if sched.enqueue(&job{ID: "j-4", Client: "c"}, 4) {
		t.Fatal("enqueue over cap accepted")
	}
	if sched.queuedFor("c") != 4 {
		t.Fatalf("queued %d, want 4", sched.queuedFor("c"))
	}
}

// TestFloodedClientDoesNotStarveQuiet runs the starvation scenario on
// a live single-worker daemon: a flooding client with a deep backlog
// of real profiling jobs, then one quiet job. The quiet job's p95 and
// max dispatch distances stay bounded by the round-robin guarantee
// regardless of the flood depth.
func TestFloodedClientDoesNotStarveQuiet(t *testing.T) {
	s := newServer(t, Options{Workers: 1})
	var floodIDs []string
	for i := 0; i < 8; i++ {
		// Distinct inputs so no flood job is answered from the cache.
		j, cached, rerr := s.submit(loopRequest("flood", int64(20000+i)))
		if rerr != nil || cached {
			t.Fatalf("flood submit %d: cached=%v err=%v", i, cached, rerr)
		}
		floodIDs = append(floodIDs, j.ID)
	}
	quiet, cached, rerr := s.submit(loopRequest("quiet", 30000))
	if rerr != nil || cached {
		t.Fatalf("quiet submit: cached=%v err=%v", cached, rerr)
	}

	if st := waitTerminal(t, s, quiet.ID); st.State != StateCompleted {
		t.Fatalf("quiet job: %+v", st)
	}
	for _, id := range floodIDs {
		if st := waitTerminal(t, s, id); st.State != StateCompleted {
			t.Fatalf("flood job %s: %+v", id, st)
		}
	}

	var quietRep, floodRep *ClientReport
	for _, r := range s.stats().Clients {
		r := r
		switch r.Client {
		case "quiet":
			quietRep = &r
		case "flood":
			floodRep = &r
		}
	}
	if quietRep == nil || floodRep == nil {
		t.Fatal("missing client reports")
	}
	if quietRep.Dispatched != 1 || floodRep.Dispatched != 8 {
		t.Fatalf("dispatch counts: quiet %d, flood %d", quietRep.Dispatched, floodRep.Dispatched)
	}
	// The quiet job arrived behind 8 flood jobs; round-robin still
	// serves it after at most the in-flight job plus one flood dispatch.
	if quietRep.MaxWaitDispatches > 3 {
		t.Errorf("quiet client waited %d dispatches; flood is starving it", quietRep.MaxWaitDispatches)
	}
	if quietRep.P95WaitDispatches > 3 {
		t.Errorf("quiet p95 dispatch distance %d exceeds bound", quietRep.P95WaitDispatches)
	}
	// The flood client's tail wait grows with its own backlog — the
	// queueing cost lands on the tenant who caused it.
	if floodRep.MaxWaitDispatches < quietRep.MaxWaitDispatches {
		t.Errorf("flood max wait %d below quiet %d; backlog cost misattributed",
			floodRep.MaxWaitDispatches, quietRep.MaxWaitDispatches)
	}
}

// TestBudgetExhaustedClass pins the documented error contract for a
// job whose instruction budget runs out: state failed, wire class
// "budget", and a 409 from the result endpoint.
func TestBudgetExhaustedClass(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1})
	req := loopRequest("budget", 20000)
	req.Config = JobConfig{StepLimit: 1000}
	code, st := submitHTTP(t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || final.Error == nil || final.Error.Class != ClassBudget {
		t.Fatalf("want failed/budget, got %+v", final)
	}
	if !strings.Contains(final.Error.Message, "budget") {
		t.Errorf("error message %q does not mention the budget", final.Error.Message)
	}

	code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusConflict {
		t.Fatalf("result of budget-failed job: %d\n%s", code, body)
	}
	var eb struct {
		Error WireError `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Class != ClassBudget {
		t.Errorf("result error class %q, want %q", eb.Error.Class, ClassBudget)
	}
}

// faultSrc is verifier-clean but faults deterministically: a counted
// loop sums the input into t4, and the load through t4 lands far past
// guest memory (input 1000000 with memSize 65536). The loop runs ~3M
// instructions first, so a 1 ms deadline always expires before the
// fault.
const faultSrc = `
        .proc main
main:   syscall getint
        add t5, v0, zero
        li t4, 0
loop:   add t4, t4, t5
        addi t5, t5, -1
        bne t5, loop
        ldq t1, 0(t4)
        addi a0, zero, 0
        syscall exit
        .endproc
`

// TestSubRunFailureClasses pins the wire outcome of each way a sub-run
// fails under maxAttempts 3: a deterministic guest fault stops after
// the second attempt repeats it, an absolute stepLimit stops at once,
// and a spent deadline stops when a resumed attempt makes no progress
// (resumable) or when the attempts run out (convergent).
func TestSubRunFailureClasses(t *testing.T) {
	prog, err := asm.Assemble(faultSrc)
	if err != nil {
		t.Fatal(err)
	}
	faultPC := -1
	for pc, in := range prog.Code {
		if in.Op == isa.OpLdq {
			faultPC = pc
		}
	}
	conv := &WireConvergent{BurstLen: 500, InitialSkip: 1000, MaxSkip: 8000, Epsilon: 0.05}
	cases := []struct {
		name              string
		cfg               JobConfig
		class             string
		attempts, resumed int
	}{
		{"fault", JobConfig{}, ClassFaulted, 2, 1},
		{"step-limit", JobConfig{StepLimit: 1000}, ClassBudget, 1, 0},
		{"deadline", JobConfig{DeadlineMs: 1}, ClassBudget, 2, 1},
		{"deadline-convergent", JobConfig{DeadlineMs: 1, Convergent: conv}, ClassBudget, 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, Options{Workers: 1})
			cfg := tc.cfg
			cfg.MaxAttempts = 3
			cfg.MemSize = 1 << 16
			j, _, rerr := s.submit(&JobRequest{
				Client:  "fail",
				Program: WireProgram{Asm: faultSrc},
				Inputs:  [][]int64{{1000000}},
				Config:  cfg,
			})
			if rerr != nil {
				t.Fatal(rerr)
			}
			st := waitTerminal(t, s, j.ID)
			if st.State != StateFailed || st.Error == nil || st.Error.Class != tc.class {
				t.Fatalf("want failed/%s, got %+v", tc.class, st)
			}
			if st.Attempts != tc.attempts || st.Resumed != tc.resumed {
				t.Fatalf("attempts %d resumed %d, want %d and %d (%+v)",
					st.Attempts, st.Resumed, tc.attempts, tc.resumed, st.Error)
			}
			if tc.class == ClassFaulted && !strings.Contains(st.Error.Message, fmt.Sprintf("pc %d", faultPC)) {
				t.Errorf("fault message %q does not name pc %d", st.Error.Message, faultPC)
			}
		})
	}
}

// TestCancelRunningSalvageJob: a client cancel of a running job is not
// a budget failure, so salvagePartial must not turn it into a salvaged
// result — the job ends cancelled, leaves no checkpoint behind, and
// caches nothing.
func TestCancelRunningSalvageJob(t *testing.T) {
	dir := t.TempDir()
	s, hs := newHTTPServer(t, Options{Workers: 1, StateDir: dir, PulseEvery: 2000, CheckpointEvery: 2000})
	req := loopRequest("cancel", 3000000)
	req.Config = JobConfig{SalvagePartial: true, MaxAttempts: 3, MemSize: 1 << 16}
	code, st := submitHTTP(t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// A persisted checkpoint proves the job is running.
	ckpt := checkpointPath(dir, st.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs/"+st.ID+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d\n%s", code, body)
	}

	// The single worker picks up the next job only after it has
	// finished with the cancelled one.
	code, next := submitHTTP(t, hs.URL, loopRequest("cancel", 10))
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: %d", code)
	}
	if fin := waitTerminal(t, s, next.ID); fin.State != StateCompleted {
		t.Fatalf("follow-up job: %+v", fin)
	}

	j, _ := s.jobByID(st.ID)
	final := j.status()
	if final.State != StateCancelled || final.Error == nil || final.Error.Class != ClassCancelled {
		t.Fatalf("want cancelled, got %+v", final)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint of the cancelled job survives: %v", err)
	}
	if _, hit := s.cache.get(st.Digest); hit {
		t.Error("cancelled job left a cache entry")
	}
}

// TestSalvagePartialKeepsPrefixProfile covers the degraded path: with
// SalvagePartial the budget-exhausted job lands in state "salvaged"
// and serves its partial record — marked Salvaged with the outcome
// that truncated it — instead of failing empty-handed.
func TestSalvagePartialKeepsPrefixProfile(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1})
	req := loopRequest("salvage", 20000)
	req.Config = JobConfig{StepLimit: 1000, SalvagePartial: true}
	code, st := submitHTTP(t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSalvaged || final.Error == nil || final.Error.Class != ClassBudget {
		t.Fatalf("want salvaged with budget error, got %+v", final)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("salvaged result: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Vprof-Salvaged") != "true" {
		t.Error("salvaged result missing X-Vprof-Salvaged header")
	}
	rec, err := core.ReadProfileRecord(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Salvaged || rec.Outcome == "" {
		t.Errorf("salvaged record provenance: salvaged=%v outcome=%q", rec.Salvaged, rec.Outcome)
	}
	if len(rec.Sites) == 0 {
		t.Error("salvaged record has no profiled sites")
	}
}

// TestProgressPulseSchedule pins where progress events land: a sub-run
// pulses every PulseEvery instructions counted from its first
// instruction, so event seq reports instCount 1 + seq·PulseEvery, and
// no pulse falls past the run's last instruction. emit drops events a
// full subscriber buffer cannot take, so only the pairs received are
// checked, not their number.
func TestProgressPulseSchedule(t *testing.T) {
	const every, count = 1000, 400000
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := vm.New(prog)
	ref.Input = []int64{count}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	last := (ref.InstCount - 1) / every

	s := newServer(t, Options{Workers: 1, PulseEvery: every})
	j, _, rerr := s.submit(loopRequest("pulse", count))
	if rerr != nil {
		t.Fatal(rerr)
	}
	ch, unsub := j.subscribe()
	defer unsub()
	received := 0
	for ev := range ch {
		received++
		if seq := uint64(ev.Seq); ev.InstCount != 1+seq*every || seq > last {
			t.Errorf("event seq %d at instruction %d, want %d (last seq %d)", ev.Seq, ev.InstCount, 1+seq*every, last)
		}
	}
	if received == 0 {
		t.Fatal("no progress event received")
	}
	if st := waitTerminal(t, s, j.ID); st.State != StateCompleted {
		t.Fatalf("job: %+v", st)
	}
}

// TestCheckpointsWithoutPulses: a sub-run's step routine asks for the
// earlier of its pulse and checkpoint dues, so with pulses that never
// come due it still snapshots every CheckpointEvery instructions — the
// persisted checkpoint moves past the second snapshot while the job
// runs.
func TestCheckpointsWithoutPulses(t *testing.T) {
	const every = 100000
	dir := t.TempDir()
	s := newServer(t, Options{Workers: 1, StateDir: dir, PulseEvery: 1 << 40, CheckpointEvery: every})
	req := loopRequest("ckpt", 3000000)
	req.Config = JobConfig{MemSize: 1 << 16}
	j, _, rerr := s.submit(req)
	if rerr != nil {
		t.Fatal(rerr)
	}
	path := checkpointPath(dir, j.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ck, err := core.LoadCheckpoint(path); err == nil && ck.InstCount() > 1+every {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the persisted checkpoint never moved past the first snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	s.cancelJob(j)
	if st := waitTerminal(t, s, j.ID); st.State != StateCancelled {
		t.Fatalf("job: %+v", st)
	}
}
