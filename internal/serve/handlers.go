package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The HTTP surface (full contracts in docs/serve.md):
//
//	POST /v1/jobs               submit; 202 queued, 200 cache hit
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   completed/salvaged profile record
//	GET  /v1/jobs/{id}/stream   SSE progress until terminal
//	POST /v1/jobs/{id}/cancel   cancel; idempotent
//	GET  /v1/stats              scheduler and cache counters
//	GET  /healthz               liveness
//
// Every error body is {"error":{"class":...,"message":...}} with the
// class drawn from the documented set; handlers never panic the daemon
// and never touch the filesystem (all durability lives behind the job
// and cache layers, which write through atomicio).

// statusOf maps a wire error class to its HTTP status.
func statusOf(class string) int {
	switch class {
	case ClassBadRequest:
		return http.StatusBadRequest
	case ClassInvalidProgram, ClassConfig:
		return http.StatusUnprocessableEntity
	case ClassOversized:
		return http.StatusRequestEntityTooLarge
	case ClassUnknownJob:
		return http.StatusNotFound
	case ClassNotReady, ClassBudget, ClassFaulted, ClassCancelled:
		return http.StatusConflict
	case ClassExpired:
		return http.StatusGone
	case ClassMethod:
		return http.StatusMethodNotAllowed
	case ClassOverloaded:
		return http.StatusTooManyRequests
	case ClassClosing:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Handler returns the daemon's HTTP handler, ready to mount on an
// http.Server (or httptest.Server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.withJob(s.handleStream))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	// The pattern mux answers unmatched methods with a bare 405; wrap it
	// so those too speak the uniform error body.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusCapture{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
	})
}

// statusCapture rewrites the mux's built-in 405/404 text responses
// into the API's JSON error contract.
type statusCapture struct {
	http.ResponseWriter
	rewrote bool
	done    bool
}

func (c *statusCapture) WriteHeader(code int) {
	c.done = true
	if code == http.StatusMethodNotAllowed {
		c.rewrote = true
		writeJSON(c.ResponseWriter, code, errBody(ClassMethod, "method not allowed"))
		return
	}
	if code == http.StatusNotFound {
		c.rewrote = true
		writeJSON(c.ResponseWriter, code, errBody(ClassUnknownJob, "no such resource"))
		return
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *statusCapture) Write(b []byte) (int, error) {
	if c.rewrote {
		return len(b), nil // swallow the mux's plain-text body
	}
	c.done = true
	return c.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer (SSE needs it).
func (c *statusCapture) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func errBody(class, format string, args ...any) map[string]WireError {
	return map[string]WireError{"error": {Class: class, Message: fmt.Sprintf(format, args...)}}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, class, format string, args ...any) {
	writeJSON(w, statusOf(class), errBody(class, format, args...))
}

// withJob resolves the {id} path segment before invoking the handler.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := s.jobByID(id)
		if !ok {
			writeErr(w, ClassUnknownJob, "no job %q", id)
			return
		}
		h(w, r, j)
	}
}

// submitResponse is the POST /v1/jobs body: the job's immediate status.
type submitResponse struct {
	Job JobStatus `json:"job"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	req, err := readRequest(r.Body, r.ContentLength, s.opts.MaxBody)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, ClassOversized, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, ClassBadRequest, "decoding request: %v", err)
		return
	}
	j, cached, rerr := s.submit(req)
	if rerr != nil {
		writeErr(w, rerr.Class, "%s", rerr.Msg)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{Job: j.status()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *job) {
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	st := j.status()
	switch st.State {
	case StateCompleted:
		rec, ok := s.cache.get(j.Digest)
		if !ok {
			// The cache dropped the entry (a damaged file an earlier
			// daemon wrote), and nothing reruns a finished job.
			writeErr(w, ClassExpired, "result of job %s is no longer cached; submit the request again to recompute it", j.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Vprof-Digest", j.Digest)
		w.WriteHeader(http.StatusOK)
		w.Write(rec)
	case StateSalvaged:
		// A salvaged partial is served from the job (never the cache: it
		// is not the config's true profile) with the budget failure that
		// produced it echoed in a header.
		j.mu.Lock()
		rec := j.result
		j.mu.Unlock()
		if rec == nil {
			writeErr(w, ClassInternal, "salvaged job %s has no partial record", j.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Vprof-Salvaged", "true")
		w.WriteHeader(http.StatusOK)
		w.Write(rec)
	case StateFailed, StateCancelled:
		writeErr(w, st.Error.Class, "%s", st.Error.Message)
	default:
		writeErr(w, ClassNotReady, "job %s is %s", j.ID, st.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, j *job) {
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleStream is the SSE endpoint: one "status" event with the state
// at subscription, "progress" events while the job runs, and a final
// "done" event carrying the terminal JobStatus. The stream also ends
// (without "done") if the daemon shuts down or the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, ClassInternal, "streaming unsupported by this connection")
		return
	}
	ch, unsub := j.subscribe()
	defer unsub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent(w, "status", j.status())
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				st := j.status()
				if terminalState(st.State) {
					writeEvent(w, "done", st)
					fl.Flush()
				}
				return
			}
			writeEvent(w, "progress", ev)
			fl.Flush()
		}
	}
}

// writeEvent emits one SSE frame with a JSON data payload.
func writeEvent(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
