package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func check(t *testing.T, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := CheckFile(token.NewFileSet(), path)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFlagsRawWrites(t *testing.T) {
	fs := check(t, `package main

import "os"

func main() {
	f, _ := os.Create("out.json")
	f.Close()
	os.WriteFile("x", nil, 0o644)
	os.OpenFile("y", os.O_WRONLY|os.O_CREATE, 0o644)
}
`)
	if len(fs) != 3 {
		t.Fatalf("findings = %d (%v), want 3", len(fs), fs)
	}
	if fs[0].Call != "os.Create" || fs[0].Pos.Line != 6 {
		t.Errorf("first finding = %v", fs[0])
	}
}

func TestAllowsReadsAndAliases(t *testing.T) {
	fs := check(t, `package main

import (
	stdos "os"
)

func main() {
	stdos.Open("in.json")
	stdos.ReadFile("in.json")
	stdos.OpenFile("in.json", stdos.O_RDONLY, 0)
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none", fs)
	}
}

func TestAliasedImportStillCaught(t *testing.T) {
	fs := check(t, `package main

import stdos "os"

func main() {
	stdos.Create("out")
}
`)
	if len(fs) != 1 || fs[0].Call != "os.Create" {
		t.Fatalf("findings = %v, want one os.Create", fs)
	}
}

func TestOtherPackagesIgnored(t *testing.T) {
	// A different package named os-like, or a local variable named os,
	// must not be confused with the stdlib os package when os is not
	// imported.
	fs := check(t, `package main

type fake struct{}

func (fake) Create(string) {}

var os fake

func main() {
	os.Create("x")
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none", fs)
	}
}

// checkAt writes src at a repo-relative path inside a temp root and
// lints it, so path-scoped rules (the arena discipline) see the
// location they key on.
func checkAt(t *testing.T, rel, src string) []Finding {
	t.Helper()
	full := filepath.Join(t.TempDir(), filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := CheckFile(token.NewFileSet(), full)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFlagsPerJobAllocationInParallel(t *testing.T) {
	src := `package parallel

import (
	"valueprof/internal/atom"
	thevm "valueprof/internal/vm"
)

func runOne(prog *Program) {
	v := thevm.NewSized(prog, 1<<20)
	_ = atom.Prepare(prog, atom.RunOptions{})
	regs := make([]int64, 32)
	bits := make([]uint8, 128)
	_, _, _ = v, regs, bits
}
`
	fs := checkAt(t, "internal/parallel/parallel.go", src)
	if len(fs) != 4 {
		t.Fatalf("findings = %d (%v), want 4", len(fs), fs)
	}
	if fs[0].Call != "vm.NewSized" || fs[1].Call != "atom.Prepare" ||
		fs[2].Call != "make([]int64)" || fs[3].Call != "make([]uint8)" {
		t.Errorf("findings = %v", fs)
	}
}

func TestArenaFileAndOtherPackagesExempt(t *testing.T) {
	src := `package parallel

import "valueprof/internal/vm"

func fresh(prog *Program) *vm.VM { return vm.New(prog) }
`
	if fs := checkAt(t, "internal/parallel/arena.go", src); len(fs) != 0 {
		t.Errorf("arena.go findings = %v, want none", fs)
	}
	if fs := checkAt(t, "internal/supervise/supervise.go", src); len(fs) != 0 {
		t.Errorf("out-of-scope findings = %v, want none", fs)
	}
	// Byte slices and sized maps are not per-job register state.
	ok := `package parallel

func buffers(n int) ([][]byte, []int) {
	return make([][]byte, n), make([]int, n)
}
`
	if fs := checkAt(t, "internal/parallel/bench.go", ok); len(fs) != 0 {
		t.Errorf("benign allocation findings = %v, want none", fs)
	}
}

func TestRunPathRule(t *testing.T) {
	// A supervise attempt that acquires and instruments its own VM is a
	// second run path; so is a command that instruments one.
	attempt := `package supervise

import (
	"valueprof/internal/atom"
	pool "valueprof/internal/parallel"
)

func attempt(prog *Program, vp *Profiler) {
	v := pool.AcquireVM(prog, 0)
	atom.PrepareOn(v, atom.RunOptions{}, vp)
	pool.ReleaseVM(v)
}
`
	fs := checkAt(t, "internal/supervise/supervise.go", attempt)
	if len(fs) != 2 || fs[0].Call != "parallel.AcquireVM" || fs[1].Call != "atom.PrepareOn" {
		t.Errorf("supervise findings = %v, want parallel.AcquireVM and atom.PrepareOn", fs)
	}
	if fs := checkAt(t, "cmd/vprof/main.go", attempt); len(fs) != 2 {
		t.Errorf("cmd findings = %v, want 2", fs)
	}
	if fs := checkAt(t, "internal/supervise/supervise_test.go", attempt); len(fs) != 0 {
		t.Errorf("test-file findings = %v, want none", fs)
	}

	// Inside the pool package only RunJob's file acquires a VM from the
	// shared arena.
	job := `package parallel

import "valueprof/internal/atom"

func RunJob(prog *Program, vp *Profiler) {
	v := shared.AcquireVM(prog, 0)
	atom.PrepareOn(v, atom.RunOptions{}, vp)
	shared.ReleaseVM(v)
}
`
	if fs := checkAt(t, "internal/parallel/runjob.go", job); len(fs) != 0 {
		t.Errorf("runjob.go findings = %v, want none", fs)
	}
	fs = checkAt(t, "internal/parallel/parallel.go", job)
	if len(fs) != 2 || fs[0].Call != "parallel.AcquireVM" || fs[1].Call != "atom.PrepareOn" {
		t.Errorf("parallel.go findings = %v, want parallel.AcquireVM and atom.PrepareOn", fs)
	}
}

func TestFlagsServeViolations(t *testing.T) {
	// The negative fixture: a serve handler that kills the process,
	// constructs its own VM and profiler, runs an attempt on an arena
	// VM of its own instead of through internal/supervise, and writes a
	// file raw. Every one of those is a distinct finding.
	src := `package serve

import (
	"os"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	pool "valueprof/internal/parallel"
	"valueprof/internal/vm"
)

func handleRun(prog *Program) {
	v := vm.New(prog)
	vp := core.NewValueProfiler(core.Options{})
	w := pool.AcquireVM(prog, 0)
	atom.PrepareOn(w, atom.RunOptions{}, vp)
	os.WriteFile("result.json", nil, 0o644)
	if v == nil || vp == nil {
		os.Exit(1)
	}
}
`
	fs := checkAt(t, "internal/serve/handlers.go", src)
	if len(fs) != 6 {
		t.Fatalf("findings = %d (%v), want 6", len(fs), fs)
	}
	calls := map[string]bool{}
	for _, f := range fs {
		calls[f.Call] = true
	}
	for _, want := range []string{"vm.New", "core.NewValueProfiler", "parallel.AcquireVM", "atom.PrepareOn", "os.WriteFile", "os.Exit"} {
		if !calls[want] {
			t.Errorf("missing finding %q in %v", want, fs)
		}
	}
}

func TestServeScopeExemptions(t *testing.T) {
	// os.Exit is only banned in serve scope: command main functions and
	// serve test files keep it.
	src := `package main

import "os"

func main() {
	os.Exit(2)
}
`
	if fs := checkAt(t, "cmd/vprofd/main.go", src); len(fs) != 0 {
		t.Errorf("cmd findings = %v, want none", fs)
	}
	testSrc := `package serve

import (
	"os"

	"valueprof/internal/vm"
)

func fixture(prog *Program) {
	_ = vm.New(prog)
	os.Exit(1)
}
`
	full := filepath.Join(t.TempDir(), "internal", "serve", "serve_test.go")
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := CheckFile(token.NewFileSet(), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("serve test-file findings = %v, want none", fs)
	}
	// Benign serve code — reads, the config probe's arena profiler,
	// slices — is clean.
	ok := `package serve

import (
	"os"

	"valueprof/internal/core"
	"valueprof/internal/parallel"
)

func load(path string, n int) ([]byte, []int64) {
	vp, _ := parallel.AcquireProfiler(core.Options{})
	defer parallel.ReleaseProfiler(vp)
	b, _ := os.ReadFile(path)
	return b, make([]int64, n)
}
`
	if fs := checkAt(t, "internal/serve/runner.go", ok); len(fs) != 0 {
		t.Errorf("benign serve findings = %v, want none", fs)
	}
}

func TestCheckTreeCleanOnServe(t *testing.T) {
	// The daemon package itself must obey the rule it motivated (make
	// lint runs this tree).
	root := filepath.Join("..", "serve")
	if _, err := os.Stat(root); err != nil {
		t.Skip("internal/serve not present")
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestCheckTreeCleanOnParallel(t *testing.T) {
	// The pool package itself must obey the arena discipline the rule
	// exists to enforce (make lint runs this tree).
	root := filepath.Join("..", "parallel")
	if _, err := os.Stat(root); err != nil {
		t.Skip("internal/parallel not present")
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestCheckTreeCleanOnSupervise(t *testing.T) {
	// The retry loop runs every attempt through parallel.RunJob (make
	// lint runs this tree).
	root := filepath.Join("..", "supervise")
	if _, err := os.Stat(root); err != nil {
		t.Skip("internal/supervise not present")
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestCheckTreeOnRepoCommands(t *testing.T) {
	// The repository's own commands must be clean: this is the check
	// make ci runs.
	root := "../../cmd"
	if _, err := os.Stat(root); err != nil {
		t.Skip("cmd/ not present")
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("repository commands use raw writes:\n%v", fs)
	}
}

func TestFlagsEmittingFactTableRange(t *testing.T) {
	fs := check(t, `package main

import "fmt"

func report(pred *Predictions) {
	for pc, sp := range pred.Sites {
		fmt.Printf("%d: %v\n", pc, sp)
	}
}
`)
	if len(fs) != 1 {
		t.Fatalf("findings = %d (%v), want 1", len(fs), fs)
	}
	if fs[0].Call != "range .Sites" {
		t.Errorf("finding = %v", fs[0])
	}
}

func TestAllowsOrderInsensitiveFactTableRange(t *testing.T) {
	fs := check(t, `package main

import "sort"

func sitePCs(pred *Predictions) []int {
	// Counting and key collection do not leak map order.
	n := 0
	for range pred.Sites {
		n++
	}
	pcs := make([]int, 0, n)
	for pc := range pred.Sites {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return pcs
}

func emitSorted(pred *Predictions, emit func(int)) {
	for _, pc := range sitePCs(pred) {
		emit(pc)
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none", fs)
	}
}

func TestFlagsFactTableRangeIntoTableRows(t *testing.T) {
	fs := check(t, `package main

func report(f *Facts, tab *Table) {
	for r, v := range f.Regs {
		tab.Row(r, v)
	}
	for s, v := range f.Slots {
		tab.Row(s, v)
	}
}
`)
	if len(fs) != 2 {
		t.Fatalf("findings = %d (%v), want 2", len(fs), fs)
	}
}

func TestCheckTreeCleanOnAnalysis(t *testing.T) {
	// The analysis package itself must respect the fact-table rule its
	// maps exist to enforce.
	root := filepath.Join("..", "analysis")
	if _, err := os.Stat(root); err != nil {
		t.Skip("internal/analysis not present")
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}
