package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"valueprof/internal/core"
)

// The end-to-end suite exercises the acceptance scenario over real
// HTTP: two concurrent jobs from distinct clients streamed to
// completion, a cache hit on identical resubmission, and a mid-run
// kill+restart whose resumed result is byte-identical to an
// uninterrupted oracle.

type sseEvent struct {
	Name string
	Data []byte
}

// readSSE consumes one SSE response body into its event sequence.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case bytes.HasPrefix([]byte(line), []byte("event: ")):
			cur.Name = line[len("event: "):]
		case bytes.HasPrefix([]byte(line), []byte("data: ")):
			cur.Data = []byte(line[len("data: "):])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return events
}

// streamUntilDone reads a job's stream to its end and returns the
// progress count and the terminal status from the done event.
func streamUntilDone(t *testing.T, base, id string) (int, JobStatus) {
	t.Helper()
	events := readSSE(t, base+"/v1/jobs/"+id+"/stream")
	progress := 0
	var done JobStatus
	sawDone := false
	for _, ev := range events {
		switch ev.Name {
		case "progress":
			progress++
		case "done":
			if err := json.Unmarshal(ev.Data, &done); err != nil {
				t.Fatalf("done event: %v\n%s", err, ev.Data)
			}
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatalf("stream for %s ended without a done event (%d events)", id, len(events))
	}
	return progress, done
}

func TestE2EConcurrentClientsStreamAndCache(t *testing.T) {
	_, hs := newHTTPServer(t, Options{Workers: 2, PulseEvery: 2000})

	// Large enough (~15M instructions each) that the streams below
	// attach while the runs are still in flight.
	aliceReq := loopRequest("alice", 3000000)
	aliceReq.Config = JobConfig{
		Convergent: &WireConvergent{BurstLen: 500, InitialSkip: 1000, MaxSkip: 8000, Epsilon: 0.05},
	}
	bobReq := loopRequest("bob", 2800000)

	code, alice := submitHTTP(t, hs.URL, aliceReq)
	if code != http.StatusAccepted {
		t.Fatalf("alice submit: %d", code)
	}
	code, bob := submitHTTP(t, hs.URL, bobReq)
	if code != http.StatusAccepted {
		t.Fatalf("bob submit: %d", code)
	}

	// Stream both jobs concurrently until their done events.
	type streamed struct {
		progress int
		done     JobStatus
	}
	results := make(chan streamed, 2)
	for _, id := range []string{alice.ID, bob.ID} {
		id := id
		go func() {
			p, d := streamUntilDone(t, hs.URL, id)
			results <- streamed{p, d}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.done.State != StateCompleted {
			t.Fatalf("job %s finished %s: %+v", r.done.ID, r.done.State, r.done)
		}
		if r.progress == 0 {
			t.Errorf("job %s streamed no progress events", r.done.ID)
		}
	}

	// Identical resubmission is a cache hit: 200, cached, no queueing.
	code, again := submitHTTP(t, hs.URL, aliceReq)
	if code != http.StatusOK || !again.Cached || again.State != StateCompleted {
		t.Fatalf("resubmission not served from cache: code %d, %+v", code, again)
	}
	if again.Digest != alice.Digest {
		t.Fatalf("resubmission digest %s != original %s", again.Digest, alice.Digest)
	}

	// Both results are served; distinct jobs have distinct digests.
	if alice.Digest == bob.Digest {
		t.Fatal("distinct jobs share a digest")
	}
	for _, id := range []string{alice.ID, bob.ID} {
		code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/"+id+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("result %s: %d\n%s", id, code, body)
		}
	}
}

// TestE2EKillRestartByteIdentical performs the restart half of the
// acceptance scenario over HTTP: SIGTERM-equivalent shutdown mid-run,
// a new daemon over the same state directory, and a resumed result
// byte-identical to the uninterrupted oracle.
func TestE2EKillRestartByteIdentical(t *testing.T) {
	// ~500k instructions: wide margin between the first checkpoint and
	// completion, so the shutdown below always lands mid-run.
	req := loopRequest("carol", 100000)
	req.Config = JobConfig{MaxAttempts: 3, MemSize: 1 << 16}
	want := oracleResult(t, req)

	stateDir := t.TempDir()
	s1, err := New(Options{Workers: 1, StateDir: stateDir, PulseEvery: 2000, CheckpointEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	code, st := submitHTTP(t, hs1.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// Wait until the first checkpoint lands, then stop the daemon the
	// way a SIGTERM handler would: evicting the running job.
	ckpt := checkpointPath(stateDir, st.ID)
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
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	err = s1.Shutdown(ctx)
	cancel()
	hs1.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Restart over the same state and let the recovered job finish.
	s2, hs2 := newHTTPServer(t, Options{Workers: 1, StateDir: stateDir, PulseEvery: 2000, CheckpointEvery: 2000})
	final := waitTerminal(t, s2, st.ID)
	if final.State != StateCompleted {
		t.Fatalf("recovered job: %+v", final)
	}
	if final.Resumed == 0 {
		t.Fatalf("recovered job never resumed from its checkpoint: %+v", final)
	}
	code, got := call(t, http.MethodGet, hs2.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d\n%s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted result differs from oracle:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestE2EJobWithoutSites runs a program that profiles no site (no loads
// under filter "loads") on one input and on two. Its record is written
// with "sites": null, which the strict loader must read back: the
// two-input job merges its sub-runs' records through that loader, and
// each result must load as a record with no sites.
func TestE2EJobWithoutSites(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1})
	for _, inputs := range [][][]int64{{{1}}, {{1}, {2}}} {
		code, st := submitHTTP(t, hs.URL, &JobRequest{
			Client:  "nosites",
			Program: WireProgram{Asm: "main: syscall getint\n syscall exit\n"},
			Inputs:  inputs,
			Config:  JobConfig{Filter: "loads"},
		})
		if code != http.StatusAccepted {
			t.Fatalf("%d inputs: submit answered %d", len(inputs), code)
		}
		if st = waitTerminal(t, s, st.ID); st.State != StateCompleted {
			t.Fatalf("%d inputs: job ended %s: %+v", len(inputs), st.State, st.Error)
		}
		code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/"+st.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("%d inputs: result answered %d", len(inputs), code)
		}
		rec, err := core.ReadProfileRecord(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%d inputs: strict load of the result: %v\n%s", len(inputs), err, body)
		}
		if len(rec.Sites) != 0 {
			t.Fatalf("%d inputs: %d sites, want none", len(inputs), len(rec.Sites))
		}
	}
}
