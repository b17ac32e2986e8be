package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"valueprof/internal/program"
)

// TestProgramMemoSharesVerifiedProgram: a repeat submission of a
// program, in the same wire form, gets the *Program and image the first
// one verified, so its jobs share them.
func TestProgramMemoSharesVerifiedProgram(t *testing.T) {
	s := newServer(t, Options{NoWorkers: true})
	image := loopImage(t)
	var jobs []*job
	for _, req := range []*JobRequest{
		loopRequest("a", 1),
		loopRequest("b", 2),
		{Program: WireProgram{Image: image}, Inputs: [][]int64{{3}}},
		{Program: WireProgram{Image: image}, Inputs: [][]int64{{4}}},
	} {
		j, _, rerr := s.submit(req)
		if rerr != nil {
			t.Fatal(rerr)
		}
		jobs = append(jobs, j)
	}
	for _, pair := range [][2]*job{{jobs[0], jobs[1]}, {jobs[2], jobs[3]}} {
		a, b := pair[0], pair[1]
		if a.Prog != b.Prog || &a.Image[0] != &b.Image[0] {
			t.Errorf("jobs %s and %s of one program hold separate copies", a.ID, b.ID)
		}
	}
	// The asm text and the image are two wire forms of one program: two
	// memo entries, one canonical image.
	if !bytes.Equal(jobs[0].Image, jobs[2].Image) {
		t.Error("asm and image forms canonicalized to different images")
	}
	if n := len(s.progs.progs.items); n != 2 {
		t.Errorf("memo holds %d programs, want 2", n)
	}
}

// TestProgramMemoNeverStoresRejection: a program that fails a check is
// not memoized, so every submission of it fails with the same class and
// message.
func TestProgramMemoNeverStoresRejection(t *testing.T) {
	s := newServer(t, Options{NoWorkers: true})
	for _, wp := range []WireProgram{
		{Asm: fallOffSrc},
		{Asm: "this is not assembly"},
		{Image: "!!not-base64!!"},
		{Image: "Z2FyYmFnZQ=="},
		{Image: farDataImage(t)},
	} {
		req := &JobRequest{Program: wp, Inputs: [][]int64{{1}}}
		_, _, first := s.submit(req)
		_, _, again := s.submit(req)
		if first == nil || again == nil || *first != *again {
			t.Errorf("%.30v: first rejection %v, then %v", wp, first, again)
		}
	}
	if n := len(s.progs.progs.items); n != 0 {
		t.Errorf("memo holds %d rejected programs", n)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[string, int](10)
	c.add("a", 1, 4)
	c.add("b", 2, 4)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get a = %d, %v", v, ok)
	}
	// a was used after b, so c's arrival evicts b.
	c.add("c", 3, 4)
	if _, ok := c.get("b"); ok {
		t.Error("b survived; it was the least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	if len(c.items) != 2 || c.used != 8 {
		t.Errorf("%d entries of %d bytes, want 2 and 8", len(c.items), c.used)
	}
	// An entry over the whole cap is refused and evicts nothing.
	c.add("huge", 4, 11)
	if _, ok := c.items["huge"]; ok || len(c.items) != 2 {
		t.Errorf("an entry over the cap was stored or evicted others: %d entries", len(c.items))
	}
	// Replacing an entry recharges it: a at 6 fills the cap exactly.
	c.add("a", 5, 6)
	if v, _ := c.get("a"); v != 5 || c.used != 10 || len(c.items) != 2 {
		t.Errorf("after replacing a: value %d, %d entries of %d bytes", v, len(c.items), c.used)
	}
	// a is now the most recent and c the least: one more entry of 4
	// evicts c alone.
	c.add("d", 6, 4)
	if _, ok := c.get("c"); ok {
		t.Error("c survived")
	}
	for _, k := range []string{"a", "d"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	if c.used != 10 {
		t.Errorf("%d bytes, want 10", c.used)
	}
}

// TestConcurrentSubmitSharesProgram: two callers submit one program at
// once to a 2-worker server (run under -race by make serve-smoke). The
// jobs share one verified Program, and their digest and result are the
// golden suite's for this request.
func TestConcurrentSubmitSharesProgram(t *testing.T) {
	s, hs := newHTTPServer(t, Options{Workers: 2})
	body, err := json.Marshal(loopRequest("golden", 100))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sub submitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sub); err == nil {
				ids[i] = sub.Job.ID
			}
		}()
	}
	wg.Wait()

	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b[bytes.IndexByte(b, '\n')+1:] // drop the status line
	}
	var want JobStatus
	if err := json.Unmarshal(golden("status_completed.txt"), &want); err != nil {
		t.Fatal(err)
	}
	var progs []*program.Program
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if st := waitTerminal(t, s, id); st.State != StateCompleted || st.Digest != want.Digest {
			t.Errorf("job %s: state %s digest %s, want completed %s", id, st.State, st.Digest, want.Digest)
		}
		code, rec := call(t, http.MethodGet, hs.URL+"/v1/jobs/"+id+"/result", nil)
		if code != http.StatusOK || !bytes.Equal(rec, golden("result_completed.txt")) {
			t.Errorf("job %s result differs from result_completed.txt (HTTP %d)", id, code)
		}
		j, _ := s.jobByID(id)
		progs = append(progs, j.Prog)
	}
	if progs[0] != progs[1] {
		t.Error("concurrent submissions of one program hold separate Programs")
	}
}
