package serve

import (
	"context"
	"encoding/base64"
	"net/http"
	"regexp"
	"testing"
	"time"

	"valueprof/internal/asm"
)

// The golden suite pins the API contract — status codes and exact JSON
// bodies — for every endpoint, including the documented error classes.
// Each test uses a fresh daemon so job IDs, digests, and counters are
// fully deterministic; `go test ./internal/serve -run Golden -update`
// regenerates the files after an intentional contract change.

func TestGoldenHealthz(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true})
	code, body := call(t, http.MethodGet, hs.URL+"/healthz", nil)
	checkGoldenResponse(t, "healthz.txt", code, body)
}

func TestGoldenSubmitQueued(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true})
	code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100))
	checkGoldenResponse(t, "submit_queued.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1", nil)
	checkGoldenResponse(t, "status_queued.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1/result", nil)
	checkGoldenResponse(t, "result_not_ready.txt", code, body)
}

func TestGoldenCancelQueued(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true})
	code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", code, body)
	}
	code, body = call(t, http.MethodPost, hs.URL+"/v1/jobs/j-1/cancel", nil)
	checkGoldenResponse(t, "cancel_queued.txt", code, body)

	// Cancel is idempotent and the terminal state sticks.
	code, body = call(t, http.MethodPost, hs.URL+"/v1/jobs/j-1/cancel", nil)
	checkGoldenResponse(t, "cancel_again.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1/result", nil)
	checkGoldenResponse(t, "result_cancelled.txt", code, body)
}

// TestGoldenSubmitErrors pins the error contract for every documented
// rejection: malformed request shapes, undecodable and
// verifier-rejected programs, and config incompatibilities.
func TestGoldenSubmitErrors(t *testing.T) {
	for _, tc := range submitErrorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newHTTPServer(t, Options{NoWorkers: true})
			code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", tc.body)
			checkGoldenResponse(t, tc.name, code, body)
		})
	}
}

// submitErrorCases are the rejected submissions TestGoldenSubmitErrors
// pins, each named by its golden file; FuzzDecodeRequest seeds from
// them too.
func submitErrorCases(tb testing.TB) []struct {
	name string
	body any
} {
	return []struct {
		name string
		body any
	}{
		{"err_bad_json.txt", `{"program": nope`},
		{"err_no_program.txt", &JobRequest{Inputs: [][]int64{{1}}}},
		{"err_both_forms.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc, Image: "aGk="},
			Inputs:  [][]int64{{1}},
		}},
		{"err_bad_base64.txt", &JobRequest{
			Program: WireProgram{Image: "!!not-base64!!"},
			Inputs:  [][]int64{{1}},
		}},
		{"err_bad_image.txt", &JobRequest{
			Program: WireProgram{Image: base64.StdEncoding.EncodeToString([]byte("garbage, not a VPX1 image"))},
			Inputs:  [][]int64{{1}},
		}},
		{"err_bad_asm.txt", &JobRequest{
			Program: WireProgram{Asm: "this is not assembly"},
			Inputs:  [][]int64{{1}},
		}},
		{"err_verify_falloff.txt", &JobRequest{
			Program: WireProgram{Asm: fallOffSrc},
			Inputs:  [][]int64{{1}},
		}},
		{"err_no_inputs.txt", &JobRequest{Program: WireProgram{Asm: loopSrc}}},
		{"err_bad_filter.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{Filter: "stores"},
		}},
		{"err_bad_tnv.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{TNV: &WireTNV{Size: -4, Steady: 2}},
		}},
		// A table wider than any record may hold (core's
		// maxTableWidth, 1<<16) used to reach a worker and panic it.
		{"err_tnv_size_over_cap.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{TNV: &WireTNV{Size: 1 << 40, Steady: 2}},
		}},
		{"err_bad_budget.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{DeadlineMs: -5},
		}},
		// The data segment (at program.DataBase) must fit in memSize,
		// and memSize in vm.MaxMemSize.
		{"err_memsize_below_data.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{MemSize: 1024},
		}},
		{"err_memsize_over_cap.txt", &JobRequest{
			Program: WireProgram{Asm: loopSrc},
			Inputs:  [][]int64{{1}},
			Config:  JobConfig{MemSize: 1 << 40},
		}},
		{"err_data_beyond_memory.txt", &JobRequest{
			Program: WireProgram{Image: farDataImage(tb)},
			Inputs:  [][]int64{{1}},
		}},
	}
}

// farDataImage is loopSrc as a base64 image whose data segment starts
// at 1<<40, past any memory a job may have.
func farDataImage(tb testing.TB) string {
	tb.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		tb.Fatal(err)
	}
	prog.DataAddr = 1 << 40
	image, err := saveImage(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(image)
}

func TestGoldenOversized(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true, MaxBody: 256})
	code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100))
	checkGoldenResponse(t, "err_oversized.txt", code, body)
}

func TestGoldenOverloaded(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true, MaxQueuedPerClient: 2})
	for i := 0; i < 2; i++ {
		if code, _ := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100+int64(i))); code != http.StatusAccepted {
			t.Fatalf("submit %d rejected with %d", i, code)
		}
	}
	code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 300))
	checkGoldenResponse(t, "err_overloaded.txt", code, body)
}

func TestGoldenUnknownAndMethod(t *testing.T) {
	_, hs := newHTTPServer(t, Options{NoWorkers: true})
	code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/j-404", nil)
	checkGoldenResponse(t, "err_unknown_job.txt", code, body)

	code, body = call(t, http.MethodDelete, hs.URL+"/v1/jobs", nil)
	checkGoldenResponse(t, "err_method.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/nope", nil)
	checkGoldenResponse(t, "err_unknown_path.txt", code, body)
}

func TestGoldenClosing(t *testing.T) {
	s, hs := newHTTPServer(t, Options{NoWorkers: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100))
	checkGoldenResponse(t, "err_closing.txt", code, body)
}

// TestGoldenCompletedFlow pins the happy path end to end: submit, run,
// status, the exact profile record served as the result, the cache hit
// on identical resubmission, and the stats counters afterwards.
func TestGoldenCompletedFlow(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1, PulseEvery: 1000})
	code, st := submitHTTP(t, hs.URL, loopRequest("golden", 100))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitTerminal(t, s, st.ID)

	code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1", nil)
	checkGoldenResponse(t, "status_completed.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1/result", nil)
	checkGoldenResponse(t, "result_completed.txt", code, body)

	// The identical resubmission never queues: it is answered from the
	// content cache with 200 and cached=true.
	code, body = call(t, http.MethodPost, hs.URL+"/v1/jobs", loopRequest("golden", 100))
	checkGoldenResponse(t, "submit_cached.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/stats", nil)
	checkGoldenResponse(t, "stats.txt", code, scrubStats(body))
}

// TestGoldenStreamFinished pins the SSE framing for a job that is
// already terminal: a status event, then the done event.
func TestGoldenStreamFinished(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1})
	code, st := submitHTTP(t, hs.URL, loopRequest("golden", 100))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitTerminal(t, s, st.ID)
	code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1/stream", nil)
	checkGoldenResponse(t, "stream_finished.txt", code, body)
}

// scrubStats zeroes the one wall-clock-dependent stats field so the
// rest of the body can be pinned exactly.
var p95Wait = regexp.MustCompile(`"p95WaitMs": [0-9.e+-]+`)

func scrubStats(body []byte) []byte {
	return p95Wait.ReplaceAll(body, []byte(`"p95WaitMs": 0`))
}

// TestGoldenMultiInputStatus pins a multi-input job's status shape
// (inputs vs inputsDone) after completion.
func TestGoldenMultiInputStatus(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 1})
	code, st := submitHTTP(t, hs.URL, loopRequest("golden", 50, 60))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitTerminal(t, s, st.ID)
	code, body := call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1", nil)
	checkGoldenResponse(t, "status_multi_input.txt", code, body)

	code, body = call(t, http.MethodGet, hs.URL+"/v1/jobs/j-1/result", nil)
	checkGoldenResponse(t, "result_multi_input.txt", code, body)
}
