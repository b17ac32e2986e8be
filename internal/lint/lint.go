// Package lint implements the repository's custom vet pass: a small
// go/ast analysis, in the style of a go/analysis Analyzer but built on
// the standard library only, enforcing the repository's source rules.
//
// First, command code may not make raw destructive file writes
// (os.Create, os.WriteFile, write-mode os.OpenFile); it must route
// output through internal/atomicio, whose write-to-temp-then-rename
// discipline means an interrupted run never leaves a torn profile,
// checkpoint, or image at the destination path.
//
// Second, report-emitting code may not range directly over an
// analysis fact table (fields named Sites, Regs, Slots — notably the
// map-typed Predictions.Sites and Facts.Regs/Slots): Go map order is
// randomized, so ranging one inside a loop that prints or writes rows
// yields nondeterministic reports and un-diffable golden files. Such
// code must go through the sorted accessors (e.g.
// Predictions.SitePCs) or collect-and-sort first; order-insensitive
// folds over the same maps are fine. The check is name-based — a
// stdlib-only pass has no type information — so slice-typed fields
// with these names are held to the same discipline (indexed
// iteration), which also keeps the call sites safe if a field's
// representation ever changes to a map.
//
// Third, job-body code in internal/parallel may not allocate per-job
// execution state: no vm.New/vm.NewSized, atom.Prepare, or
// core.NewValueProfiler calls, and no make([]int64, ...) /
// make([]uint8, ...) (fresh register or hook-bit arrays). All of that
// must go through the arena (arena.go, the single exempt file), so the
// pool's allocation-reuse optimization cannot silently regress one
// call site at a time. Test files are exempt — they construct fixtures
// and measure the unpooled baseline on purpose.
//
// Fourth, daemon code in internal/serve may not call os.Exit (a
// handler reports errors over the wire; only a command's main may end
// the process), and may not run guest code itself: vm.New/vm.NewSized,
// atom.Prepare, and core.NewValueProfiler are banned there just as in
// the pool package. Only the config probe's parallel.AcquireProfiler
// stays. Raw destructive writes are covered by the first rule, which
// applies to every tree vvet runs over — make lint runs it on
// internal/serve.
//
// Fifth, in every tree vvet runs over, parallel.AcquireVM and
// atom.PrepareOn may be called only in internal/parallel's runjob.go,
// the home of parallel.RunJob, and arena.go. RunJob is the one run
// path: a profiled run that acquires or instruments a VM anywhere else
// is the start of a second one. Inside internal/parallel the rule also
// covers the arena's own AcquireVM method.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Call string // the offending call, e.g. "os.Create"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Call, f.Msg)
}

// banned maps functions in the os package to the reason they may not be
// called directly from command code.
var banned = map[string]string{
	"Create":    "use internal/atomicio so a crash mid-write cannot leave a torn file",
	"WriteFile": "use internal/atomicio so a crash mid-write cannot leave a torn file",
	"OpenFile":  "use internal/atomicio for write-mode opens; direct opens are only safe read-only",
}

// arenaScoped reports whether path falls under the per-job allocation
// rule: a non-test file in a directory named parallel (the worker-pool
// package, however the tree is rooted) other than arena.go itself.
func arenaScoped(path string) bool {
	if filepath.Base(filepath.Dir(path)) != "parallel" {
		return false
	}
	base := filepath.Base(path)
	return base != "arena.go" && !strings.HasSuffix(base, "_test.go")
}

// arenaBanned maps package-qualified calls to the arena replacement a
// job body must use instead.
var arenaBanned = map[string]string{
	"vm.New":                "acquire per-job VMs through the arena (AcquireVM) so pooling cannot silently regress",
	"vm.NewSized":           "acquire per-job VMs through the arena (AcquireVM) so pooling cannot silently regress",
	"atom.Prepare":          "use atom.PrepareOn with an arena-acquired VM; Prepare allocates a fresh one per job",
	"core.NewValueProfiler": "acquire per-job profilers through the arena (AcquireProfiler) so pooling cannot silently regress",
}

// runPathBanned maps the calls that start a profiled run by hand to
// the reason they belong to parallel.RunJob alone.
var runPathBanned = map[string]string{
	"parallel.AcquireVM": "run jobs through parallel.RunJob, the one run path; only it acquires VMs",
	"atom.PrepareOn":     "run jobs through parallel.RunJob, the one run path; only it instruments VMs",
}

// runPathFile reports whether path is one of the two files allowed to
// acquire and instrument VMs: internal/parallel's runjob.go and
// arena.go, however the tree is rooted.
func runPathFile(path string) bool {
	if filepath.Base(filepath.Dir(path)) != "parallel" {
		return false
	}
	base := filepath.Base(path)
	return base == "runjob.go" || base == "arena.go"
}

// runPathViolation flags a call that acquires or instruments a VM
// outside the run path: parallel.AcquireVM or atom.PrepareOn through
// the file's import names, or, in a pool file, the arena's AcquireVM
// called unqualified or as a method.
func runPathViolation(fset *token.FileSet, call *ast.CallExpr, importNames map[string]string, poolFile bool) *Finding {
	name := ""
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			if canonical, ok := importNames[pkg.Name]; ok {
				qualified := canonical + "." + fn.Sel.Name
				if reason, ok := runPathBanned[qualified]; ok {
					return &Finding{Pos: fset.Position(call.Pos()), Call: qualified, Msg: reason}
				}
				return nil
			}
		}
		name = fn.Sel.Name
	case *ast.Ident:
		name = fn.Name
	}
	if poolFile && name == "AcquireVM" {
		return &Finding{Pos: fset.Position(call.Pos()), Call: "parallel.AcquireVM", Msg: runPathBanned["parallel.AcquireVM"]}
	}
	return nil
}

// serveScoped reports whether path falls under the daemon rule: a
// non-test file in a directory named serve (the profiling-as-a-service
// package, however the tree is rooted).
func serveScoped(path string) bool {
	if filepath.Base(filepath.Dir(path)) != "serve" {
		return false
	}
	return !strings.HasSuffix(filepath.Base(path), "_test.go")
}

// serveViolation flags daemon-scoped calls: os.Exit anywhere in serve
// code (handlers report errors over the wire, they never end the
// process) and the same arena-bypassing constructors the pool rule
// bans.
func serveViolation(fset *token.FileSet, call *ast.CallExpr, importNames map[string]string, osName string) *Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if osName != "" && pkg.Name == osName && sel.Sel.Name == "Exit" {
		return &Finding{
			Pos:  fset.Position(call.Pos()),
			Call: "os.Exit",
			Msg:  "serve handlers report errors over the wire; only a command's main may end the process",
		}
	}
	canonical, ok := importNames[pkg.Name]
	if !ok {
		return nil
	}
	qualified := canonical + "." + sel.Sel.Name
	if reason, ok := arenaBanned[qualified]; ok {
		return &Finding{Pos: fset.Position(call.Pos()), Call: qualified, Msg: reason}
	}
	return nil
}

// arenaViolation flags per-job allocation in a pool job body: a banned
// constructor call (resolved through the file's actual import names)
// or a fresh register/hook-bit array (make of []int64 or []uint8).
func arenaViolation(fset *token.FileSet, call *ast.CallExpr, importNames map[string]string) *Finding {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return nil
		}
		canonical, ok := importNames[pkg.Name]
		if !ok {
			return nil
		}
		qualified := canonical + "." + fn.Sel.Name
		if reason, ok := arenaBanned[qualified]; ok {
			return &Finding{Pos: fset.Position(call.Pos()), Call: qualified, Msg: reason}
		}
	case *ast.Ident:
		if fn.Name != "make" || len(call.Args) == 0 {
			return nil
		}
		arr, ok := call.Args[0].(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return nil
		}
		elt, ok := arr.Elt.(*ast.Ident)
		if !ok || (elt.Name != "int64" && elt.Name != "uint8") {
			return nil
		}
		return &Finding{
			Pos:  fset.Position(call.Pos()),
			Call: "make([]" + elt.Name + ")",
			Msg:  "per-job register/hook-bit arrays must come from arena-recycled state, not a fresh make",
		}
	}
	return nil
}

// readOnlyOpenFile reports whether an os.OpenFile call is provably
// read-only: its flag argument is the literal O_RDONLY selector on the
// os package (under whatever name the file imports it). Anything more
// complex is flagged.
func readOnlyOpenFile(call *ast.CallExpr, osName string) bool {
	if len(call.Args) < 2 {
		return false
	}
	sel, ok := call.Args[1].(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == osName && sel.Sel.Name == "O_RDONLY"
}

// CheckFile parses one Go source file and returns its violations.
// Test files are exempt: tests routinely create fixtures and their
// half-written files never outlive the test's temp directory.
func CheckFile(fset *token.FileSet, fpath string) ([]Finding, error) {
	if strings.HasSuffix(fpath, "_test.go") {
		return nil, nil
	}
	file, err := parser.ParseFile(fset, fpath, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}

	// Resolve which local name refers to the os package ("" if the file
	// never imports it), and which local names refer to the per-job
	// state packages.
	osName := ""
	poolImports := map[string]string{}
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch p {
		case "os":
			osName = name
		case "valueprof/internal/vm", "valueprof/internal/atom", "valueprof/internal/core", "valueprof/internal/parallel":
			poolImports[name] = path.Base(p)
		}
	}
	poolFile := arenaScoped(fpath)
	serveFile := serveScoped(fpath)
	runPath := runPathFile(fpath)

	var out []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		if !runPath {
			if call, ok := n.(*ast.CallExpr); ok {
				if f := runPathViolation(fset, call, poolImports, poolFile); f != nil {
					out = append(out, *f)
				}
			}
		}
		if poolFile {
			if call, ok := n.(*ast.CallExpr); ok {
				if f := arenaViolation(fset, call, poolImports); f != nil {
					out = append(out, *f)
				}
			}
		}
		if serveFile {
			if call, ok := n.(*ast.CallExpr); ok {
				if f := serveViolation(fset, call, poolImports, osName); f != nil {
					out = append(out, *f)
				}
			}
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if name, bad := emittingFactRange(rs); bad {
				out = append(out, Finding{
					Pos:  fset.Position(rs.Pos()),
					Call: "range ." + name,
					Msg:  "fact-table map order is randomized; emit through the sorted accessor (e.g. SitePCs) or sort keys first",
				})
			}
			return true
		}
		if osName == "" || osName == "_" {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != osName {
			return true
		}
		reason, ok := banned[sel.Sel.Name]
		if !ok {
			return true
		}
		if sel.Sel.Name == "OpenFile" && readOnlyOpenFile(call, osName) {
			return true
		}
		out = append(out, Finding{
			Pos:  fset.Position(call.Pos()),
			Call: "os." + sel.Sel.Name,
			Msg:  reason,
		})
		return true
	})
	return out, nil
}

// factTables names the map-typed fields of analysis results whose
// iteration order must never reach a report: Predictions.Sites,
// Facts.Regs, Facts.Slots.
var factTables = map[string]bool{
	"Sites": true,
	"Regs":  true,
	"Slots": true,
}

// emitCalls are method/function names whose invocation inside a loop
// body marks the loop as report-emitting: ordered output escapes.
var emitCalls = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Row": true, "Write": true, "WriteString": true, "Encode": true,
}

// emittingFactRange reports whether rs ranges directly over a
// fact-table field while its body emits output. The check is
// syntactic: any `range x.Sites` (etc.) whose body calls a printing,
// table-row, or encoder method is flagged. Order-insensitive folds —
// counting, summing, collecting keys for a later sort — do not emit
// and pass.
func emittingFactRange(rs *ast.RangeStmt) (string, bool) {
	sel, ok := rs.X.(*ast.SelectorExpr)
	if !ok || !factTables[sel.Sel.Name] {
		return "", false
	}
	emits := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if emitCalls[fn.Sel.Name] {
				emits = true
			}
		case *ast.Ident:
			if emitCalls[fn.Name] {
				emits = true
			}
		}
		return !emits
	})
	return sel.Sel.Name, emits
}

// CheckTree walks every non-test .go file under root (skipping testdata
// directories) and returns all violations, in file order.
func CheckTree(root string) ([]Finding, error) {
	fset := token.NewFileSet()
	var out []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fs, ferr := CheckFile(fset, path)
		if ferr != nil {
			return ferr
		}
		out = append(out, fs...)
		return nil
	})
	return out, err
}
