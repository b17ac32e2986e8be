// Package clitest runs the built command binaries end to end and pins
// their user-facing contract: exit codes, stderr diagnostics, and the
// load-bearing lines of their output. These are the behaviors scripts
// and CI pipelines depend on, which unit tests of the underlying
// packages cannot see break.
package clitest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"valueprof/internal/core"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir,
		"./cmd/vdiff", "./cmd/vlint", "./cmd/vprof")
	build.Dir = repoRoot()
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building commands: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest -> repo root
}

// run executes one built command and returns stdout, stderr, and the
// exit code.
func run(t *testing.T, name string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Dir = repoRoot()
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// goodRecord returns a valid single-program profile record with the
// given input name and per-site invariances.
func goodRecord(input string, inv7 int) string {
	return fmt.Sprintf(`{"program":"p","input":%q,"k":10,"sites":[`+
		`{"pc":3,"name":"main+3","exec":100,"lvpHits":90,"zeros":5,`+
		`"top":[{"Value":7,"Count":%d},{"Value":1,"Count":%d}]},`+
		`{"pc":9,"name":"main+9","exec":50,"lvpHits":10,"zeros":0,`+
		`"top":[{"Value":2,"Count":50}]}]}`, input, inv7, 100-inv7)
}

func TestVdiffGoodProfiles(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.json", goodRecord("test", 60))
	b := writeFile(t, dir, "b.json", goodRecord("train", 80))
	stdout, stderr, code := run(t, "vdiff", a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"p: test vs train",
		"sites: 2 common, 0 only in test, 0 only in train",
		"Inv-Top(1) correlation:",
		"classification agreement:",
		"largest 10 invariance drifts",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestVdiffCorruptProfile(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.json", goodRecord("test", 60))
	// A duplicated site pc: strict loading rejects the whole file and
	// points at -repair, which drops the duplicate and keeps the rest.
	corrupt := writeFile(t, dir, "bad.json",
		`{"program":"p","input":"x","k":10,"sites":[`+
			`{"pc":3,"exec":10,"top":[{"Value":7,"Count":10}]},`+
			`{"pc":3,"exec":50,"top":[{"Value":2,"Count":50}]}]}`)

	_, stderr, code := run(t, "vdiff", good, corrupt)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "duplicate pc") {
		t.Errorf("stderr does not name the violation:\n%s", stderr)
	}
	if !strings.Contains(stderr, "retry with -repair to salvage valid sites") {
		t.Errorf("stderr missing the -repair hint:\n%s", stderr)
	}

	// With -repair the valid site is salvaged and the diff proceeds.
	stdout, stderr, code := run(t, "vdiff", "-repair", good, corrupt)
	if code != 0 {
		t.Fatalf("-repair exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "sites: 1 common") {
		t.Errorf("salvaged diff should compare the 1 surviving site:\n%s", stdout)
	}
}

func TestVdiffUsage(t *testing.T) {
	_, stderr, code := run(t, "vdiff", "only-one.json")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: vdiff") {
		t.Errorf("stderr missing usage line:\n%s", stderr)
	}
}

func TestVlintCleanAndStrict(t *testing.T) {
	stdout, stderr, code := run(t, "vlint", "examples/asm/sum.s")
	if code != 0 {
		t.Fatalf("clean file: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ok (") {
		t.Errorf("clean file: stdout missing ok line:\n%s", stdout)
	}

	// warnings.s carries warning-severity diagnostics: accepted by
	// default, rejected under -strict.
	stdout, _, code = run(t, "vlint", "examples/asm/warnings.s")
	if code != 0 {
		t.Fatalf("warnings without -strict: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "warning") {
		t.Errorf("warnings.s printed no warning:\n%s", stdout)
	}
	stdout, _, code = run(t, "vlint", "-strict", "examples/asm/warnings.s")
	if code != 1 {
		t.Fatalf("-strict on warnings: exit %d, want 1\n%s", code, stdout)
	}
}

func TestVlintUsageAndIOErrors(t *testing.T) {
	_, stderr, code := run(t, "vlint")
	if code != 2 || !strings.Contains(stderr, "usage: vlint") {
		t.Fatalf("no args: exit %d, stderr: %s", code, stderr)
	}
	_, _, code = run(t, "vlint", "no-such-file.s")
	if code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
}

func TestVprofMerge(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.vp", goodRecord("test", 60))
	b := writeFile(t, dir, "b.vp", goodRecord("train", 80))
	out := filepath.Join(dir, "merged.json")

	stdout, stderr, code := run(t, "vprof", "-merge", "-o", out, a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "merged 2 runs of p: 2 sites, 300 profiled executions") {
		t.Errorf("stdout missing merge summary:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Program string `json:"program"`
		Merged  []string
		Sites   []struct {
			Exec uint64 `json:"exec"`
		}
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("merged output is not valid JSON: %v", err)
	}
	if rec.Program != "p" || len(rec.Sites) != 2 {
		t.Fatalf("merged record wrong: %+v", rec)
	}
	if rec.Sites[0].Exec != 200 {
		t.Errorf("merged exec = %d, want 200 (100+100)", rec.Sites[0].Exec)
	}
}

func TestVprofMergeRejectsMismatchedProfiles(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.vp", goodRecord("test", 60))
	otherK := writeFile(t, dir, "k5.vp", `{"program":"p","input":"i","k":5,"sites":[]}`)
	out := filepath.Join(dir, "merged.json")

	_, stderr, code := run(t, "vprof", "-merge", "-o", out, a, otherK)
	if code != 1 || !strings.Contains(stderr, "merging") {
		t.Fatalf("mismatched K: exit %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("failed merge left an output file behind")
	}

	_, stderr, code = run(t, "vprof", "-merge", "-o", out, a)
	if code != 1 || !strings.Contains(stderr, "at least two profile files") {
		t.Fatalf("single input: exit %d, stderr: %s", code, stderr)
	}
	_, stderr, code = run(t, "vprof", "-merge", a, a)
	if code != 1 || !strings.Contains(stderr, "requires -o") {
		t.Fatalf("missing -o: exit %d, stderr: %s", code, stderr)
	}
}

func TestVprofResumeRejectsNewerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A well-formed envelope from a hypothetical future writer: the
	// version gate must refuse it before trusting any of the payload.
	ckpt := writeFile(t, dir, "future.ckpt",
		`{"magic":"VPCKPT1","version":99,"crc32":0,"payload":{}}`)
	_, stderr, code := run(t, "vprof", "-w", "compress", "-resume", ckpt)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "newer than supported") {
		t.Errorf("stderr missing version diagnostic:\n%s", stderr)
	}
}

// TestVprofCheckpointResume pins vprof's single-run checkpoint
// contract: a run stopped by -steps exits 125 and leaves a checkpoint,
// resuming it produces a record byte-identical to an uninterrupted
// run, and a checkpoint of another workload is refused.
func TestVprofCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "f.ckpt")
	partial := filepath.Join(dir, "p.json")
	_, stderr, code := run(t, "vprof", "-w", "compress", "-steps", "200000",
		"-checkpoint", ckpt, "-o", partial)
	if code != 125 {
		t.Fatalf("stopped run: exit %d, want 125; stderr: %s", code, stderr)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("stopped run left no checkpoint: %v", err)
	}

	resumed := filepath.Join(dir, "r.json")
	if _, stderr, code := run(t, "vprof", "-w", "compress", "-resume", ckpt, "-o", resumed); code != 0 {
		t.Fatalf("resumed run: exit %d; stderr: %s", code, stderr)
	}
	ref := filepath.Join(dir, "ref.json")
	if _, stderr, code := run(t, "vprof", "-w", "compress", "-o", ref); code != 0 {
		t.Fatalf("reference run: exit %d; stderr: %s", code, stderr)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("record of the resumed run differs from the uninterrupted run's")
	}

	_, stderr, code = run(t, "vprof", "-w", "dictv", "-resume", ckpt)
	if code != 1 {
		t.Fatalf("foreign checkpoint: exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "checkpoint is for compress/test, not dictv/test") {
		t.Errorf("stderr missing the workload mismatch diagnostic:\n%s", stderr)
	}
}

// TestVprofResumeRejectsUnreachableTNVState resumes from a checkpoint
// whose CRC is valid but whose TNV table holds a state no run can
// reach: one value twice, and a clear clock past its interval. vprof
// must refuse it rather than write a record the strict loader rejects.
func TestVprofResumeRejectsUnreachableTNVState(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "f.ckpt")
	if _, stderr, code := run(t, "vprof", "-w", "compress", "-steps", "200000", "-checkpoint", ckpt); code != 125 {
		t.Fatalf("stopped run: exit %d, want 125; stderr: %s", code, stderr)
	}
	ck, err := core.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	crafted := false
	for i := range ck.Sites {
		s := &ck.Sites[i]
		if s.Exec >= 3 && s.TNV.Dropped == 0 {
			s.TNV.Entries = []core.TNVEntry{{Value: 1, Count: 2}, {Value: 1, Count: 1}}
			s.TNV.SinceClear = 5000
			crafted = true
			break
		}
	}
	if !crafted {
		t.Fatal("checkpoint has no site with three executions")
	}
	if err := ck.SaveAtomic(ckpt); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "vprof", "-w", "compress", "-resume", ckpt, "-o", filepath.Join(dir, "r.json"))
	if code != 1 {
		t.Fatalf("crafted checkpoint: exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "loading checkpoint") {
		t.Errorf("stderr missing the checkpoint diagnostic:\n%s", stderr)
	}
}

func TestVlintDeadBranchStrict(t *testing.T) {
	// deadbranch.s is verifier-clean: only the interval analysis can
	// see that the taken arm never executes. Warn by default, fail
	// under -strict.
	stdout, stderr, code := run(t, "vlint", "examples/asm/deadbranch.s")
	if code != 0 {
		t.Fatalf("dead branch without -strict: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ok (") {
		t.Errorf("verifier-clean file missing ok line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "taken arm is statically unreachable") {
		t.Errorf("missing dead-arm warning:\n%s", stdout)
	}

	stdout, _, code = run(t, "vlint", "-strict", "examples/asm/deadbranch.s")
	if code != 1 {
		t.Fatalf("-strict on dead branch: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "taken arm is statically unreachable") {
		t.Errorf("-strict output lost the dead-arm warning:\n%s", stdout)
	}
}

func TestVlintIntervalAndLoopDumps(t *testing.T) {
	stdout, stderr, code := run(t, "vlint", "-intervals", "-loops", "examples/asm/sum.s")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"intervals (whole-program dataflow):",
		"= 10", // the li 10 constant is a singleton fact
		"loops (whole-program): 1 natural loops",
		"depth 1",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

func TestVprofPrunePredict(t *testing.T) {
	stdout, stderr, code := run(t, "vprof", "-w", "dictv", "-prune-predict")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "predictive budget:") ||
		!strings.Contains(stderr, "proved (skipped)") {
		t.Errorf("stderr missing predictive-budget summary:\n%s", stderr)
	}
	if !strings.Contains(stdout, "dictv") {
		t.Errorf("stdout missing profile report:\n%s", stdout)
	}
	_, stderr, code = run(t, "vprof", "-w", "dictv", "-prune-predict", "-convergent")
	if code == 0 {
		t.Fatal("-prune-predict with -convergent accepted")
	}
	if !strings.Contains(stderr, "drop -convergent") {
		t.Errorf("missing conflict diagnostic:\n%s", stderr)
	}
}
