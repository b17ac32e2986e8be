// vprof profiles a benchmark workload and prints the paper-style
// report for the chosen profiled entity.
//
// Usage:
//
//	vprof [-w compress] [-input test|train] [-mode MODE] [-top 20]
//	      [-convergent] [-full] [-o profile.json] [-list]
//	      [-deadline 30s] [-steps N] [-jobs N]
//	      [-retries N] [-job-deadline 10s] [-salvage-partial]
//	      [-checkpoint run.ckpt] [-checkpoint-every N] [-resume run.ckpt]
//	vprof -merge -o merged.json a.vp b.vp ...
//
// Modes:
//
//	inst    value-profile all result-producing instructions (default)
//	loads   value-profile loads only
//	mem     memory-location profile (stores)
//	param   procedure-parameter profile
//	reg     per-register value streams
//	dep     store→load communication profile
//	triv    trivial-computation profile (mul/div operands)
//	proc    procedure cycle attribution
//
// -o writes the instruction profile as JSON (inst/loads modes) for
// later comparison with vdiff.
//
// Robustness: a run that ends early — guest fault, -deadline expiry,
// -steps exhaustion, SIGINT, or SIGTERM — still reports and writes the
// partial profile (the JSON record carries an "outcome" field). With
// -checkpoint the profiler state is snapshotted every -checkpoint-every
// instructions (atomic rename, crash-safe) and a -resume run continues
// from the snapshot; with -salvage-partial a damaged checkpoint is
// repaired (dropping invalid sites) or, failing that, the run restarts
// fresh instead of aborting.
//
// Exit codes: 0 clean, 1 failed (fault, setup error, or output
// mismatch), 3 salvaged (partial results kept by -salvage-partial),
// 124 deadline, 125 step limit, 130 interrupted (SIGINT/SIGTERM).
//
// Parallel runs: -w and -input accept comma-separated lists; the
// cross-product of (workload, input) pairs runs supervised on a
// -jobs-wide worker pool (inst/loads modes only), each job with its
// own profiler and VM, and the reports print in job order. -retries
// re-runs a failed job up to N extra attempts (resuming from its last
// in-memory checkpoint when the profiler options allow), -job-deadline
// bounds each attempt's wall clock, and -salvage-partial keeps the
// best partial profile of a job that exhausts its attempts instead of
// failing the batch. -checkpoint, -resume, and -o are single-run
// features and are rejected with more than one job; the exit code is
// the first failing job's, in job order, or 3 if every shortfall was
// salvaged.
//
// -merge folds two or more saved profile records (same program, same
// table width K) into one: per-site counters add, TNV tables merge by
// value, and the output record carries the source runs' provenance in
// its "merged" field.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"valueprof/internal/analysis"
	"valueprof/internal/atom"
	"valueprof/internal/atomicio"
	"valueprof/internal/core"
	"valueprof/internal/depprof"
	"valueprof/internal/memprof"
	"valueprof/internal/parallel"
	"valueprof/internal/paramprof"
	"valueprof/internal/procprof"
	"valueprof/internal/program"
	"valueprof/internal/regprof"
	"valueprof/internal/supervise"
	"valueprof/internal/textual"
	"valueprof/internal/trivprof"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// runCfg carries the control-plane settings shared by every mode.
type runCfg struct {
	ctx  context.Context
	opts atom.RunOptions

	ckptPath  string
	ckptEvery uint64
	resume    string

	retries     int
	jobDeadline time.Duration
	salvage     bool
}

// exitSalvaged is the exit code for a run that fell short but kept
// usable partial results via -salvage-partial.
const exitSalvaged = 3

func main() {
	wl := flag.String("w", "compress", "workload name (comma-separated list for parallel runs)")
	inputName := flag.String("input", "test", "input set: test or train (comma-separated for parallel runs)")
	mode := flag.String("mode", "inst", "inst|loads|mem|param|reg|dep|triv|proc")
	convergent := flag.Bool("convergent", false, "use convergent (sampling) profiling (inst/loads)")
	pruneStatic := flag.Bool("prune-static", false,
		"skip TNV tables for provably-constant/unreachable pcs (inst/loads)")
	prunePredict := flag.Bool("prune-predict", false,
		"adaptive hook budget from predictive invariance analysis: skip proved sites, down-sample likely ones, full budget on the rest (inst/loads)")
	full := flag.Bool("full", false, "track exact full profiles too (inst/loads)")
	top := flag.Int("top", 20, "show the N hottest entries")
	outFile := flag.String("o", "", "write the profile as JSON (inst/loads)")
	list := flag.Bool("list", false, "list workloads and exit")
	deadline := flag.Duration("deadline", 0, "stop the run after this wall-clock budget (0 = none)")
	steps := flag.Uint64("steps", 0, "stop the run after N instructions (0 = VM default)")
	ckptPath := flag.String("checkpoint", "", "snapshot profiler state to this file during the run (inst/loads)")
	ckptEvery := flag.Uint64("checkpoint-every", core.DefaultCheckpointEvery,
		"instructions between checkpoint snapshots")
	resume := flag.String("resume", "", "resume an interrupted run from this checkpoint file (inst/loads)")
	jobsN := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool width for multi-workload runs (inst/loads)")
	retries := flag.Int("retries", 0, "re-run a failed job up to N extra attempts (multi-workload runs)")
	jobDeadline := flag.Duration("job-deadline", 0, "wall-clock budget per job attempt (multi-workload runs; 0 = none)")
	salvage := flag.Bool("salvage-partial", false,
		"keep partial results instead of failing: repair or restart from a damaged -resume checkpoint; with -jobs, keep the best partial profile of a job that exhausts its retries (exit 3)")
	merge := flag.Bool("merge", false, "merge saved profile records (args: a.vp b.vp ...; requires -o)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of vprof:\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nExit codes:\n"+
			"  0    clean run\n"+
			"  1    failed: guest fault, setup error, or output mismatch\n"+
			"  3    salvaged: partial results kept by -salvage-partial\n"+
			"  124  wall-clock deadline expired\n"+
			"  125  step limit exhausted\n"+
			"  130  interrupted (SIGINT/SIGTERM); partial profile reported\n")
	}
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-10s %s\n", w.Name, w.Description)
		}
		return
	}

	if *merge {
		mergeMode(flag.Args(), *outFile)
		return
	}

	wNames := strings.Split(*wl, ",")
	inNames := strings.Split(*inputName, ",")

	// SIGINT and SIGTERM both cancel the run context; the run loop
	// stops at the next quantum boundary and the partial profile is
	// salvaged below, so a supervisor's TERM is as graceful as Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := &runCfg{
		ctx: ctx,
		opts: atom.RunOptions{
			StepLimit: *steps,
		},
		ckptPath:    *ckptPath,
		ckptEvery:   *ckptEvery,
		resume:      *resume,
		retries:     *retries,
		jobDeadline: *jobDeadline,
		salvage:     *salvage,
	}
	if *deadline > 0 {
		rc.opts.Deadline = time.Now().Add(*deadline)
	}

	if len(wNames) > 1 || len(inNames) > 1 {
		if *mode != "inst" && *mode != "loads" {
			fatal(fmt.Errorf("vprof: multiple workloads/inputs need -mode inst or loads, not %q", *mode))
		}
		if rc.ckptPath != "" || rc.resume != "" || *outFile != "" {
			fatal(fmt.Errorf("vprof: -checkpoint, -resume, and -o are single-run flags; drop them or run one workload/input"))
		}
		os.Exit(multiMode(rc, wNames, inNames, *jobsN,
			*mode == "loads", *convergent, *full, *pruneStatic, *prunePredict, *top))
	}

	w, err := workloads.ByName(wNames[0])
	if err != nil {
		fatal(err)
	}
	in, err := inputByName(w, inNames[0])
	if err != nil {
		fatal(err)
	}
	prog, err := w.Compile()
	if err != nil {
		fatal(err)
	}

	var outcome vm.RunOutcome
	switch *mode {
	case "inst", "loads":
		outcome = instMode(rc, w, in, prog, *mode == "loads", *convergent, *full, *pruneStatic, *prunePredict, *top, *outFile)
	case "mem":
		outcome = memMode(rc, w, in, prog, *top)
	case "param":
		outcome = paramMode(rc, w, in, prog, *top)
	case "reg":
		outcome = regMode(rc, w, in, prog)
	case "dep":
		outcome = depMode(rc, w, in, prog, *top)
	case "triv":
		outcome = trivMode(rc, w, in, prog, *top)
	case "proc":
		outcome = procMode(rc, w, in, prog, *top)
	default:
		fatal(fmt.Errorf("vprof: unknown mode %q", *mode))
	}
	os.Exit(exitCode(outcome))
}

// exitCode maps a run outcome to the process exit status, following
// the timeout(1)/shell conventions where one exists.
func exitCode(outcome vm.RunOutcome) int {
	switch outcome {
	case vm.OutcomeCompleted:
		return 0
	case vm.OutcomeDeadline:
		return 124
	case vm.OutcomeLimit:
		return 125
	case vm.OutcomeCancelled:
		return 130
	default:
		return 1
	}
}

// runTool executes an instrumented run under the shared control
// settings. Early termination is not fatal: the partial result comes
// back with a warning so every mode reports what it gathered.
func runTool(rc *runCfg, in workloads.Input, prog *program.Program, tools ...atom.Tool) (*vm.Result, vm.RunOutcome) {
	opts := rc.opts
	opts.Input = in.Args
	res, outcome, err := atom.RunControlled(rc.ctx, prog, opts, tools...)
	warnPartial(outcome, err)
	return res, outcome
}

func warnPartial(outcome vm.RunOutcome, err error) {
	if outcome != vm.OutcomeCompleted {
		fmt.Fprintf(os.Stderr, "vprof: run ended early (%s): %v; reporting partial profile\n", outcome, err)
	}
}

func instMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, loadsOnly, convergent, full, pruneStatic, prunePredict bool, top int, outFile string) vm.RunOutcome {
	opts := core.Options{TNV: core.DefaultTNVConfig(), TrackFull: full}
	if loadsOnly {
		opts.Filter = core.LoadsOnly
	}
	if convergent && prunePredict {
		fatal(fmt.Errorf("vprof: -prune-predict allocates its own sampling budget; drop -convergent"))
	}
	if convergent {
		cfg := core.DefaultConvergentConfig()
		opts.Convergent = &cfg
	}
	if prunePredict {
		start := time.Now()
		pred := analysis.Predict(prog)
		elapsed := time.Since(start)
		plan := pred.Plan(core.DefaultConvergentConfig())
		opts.AdaptiveBudget = &plan
		n := pred.TierCounts()
		fmt.Fprintf(os.Stderr,
			"vprof: predictive budget: %d proved (skipped), %d likely (sampled), %d uncertain (full); analysis took %s\n",
			n[analysis.TierProved], n[analysis.TierLikely], n[analysis.TierUncertain],
			elapsed.Round(time.Microsecond))
	}
	if pruneStatic {
		start := time.Now()
		cn := analysis.AnalyzeConstness(prog)
		elapsed := time.Since(start)
		opts.Prune = cn.ShouldPrune
		rep := cn.Prune(opts.Filter)
		siteBytes := int(unsafe.Sizeof(core.SiteStats{})) +
			opts.TNV.Size*int(unsafe.Sizeof(core.TNVEntry{}))
		fmt.Fprintf(os.Stderr,
			"vprof: static prune: %d of %d candidate sites need no table (%d const, %d unreached; %d more invariant), ~%d bytes of site state avoided; analysis took %s\n",
			rep.Pruned(), rep.Candidates, rep.Const, rep.Unreached, rep.Invariant,
			rep.Pruned()*siteBytes, elapsed.Round(time.Microsecond))
	}
	var ck *core.Checkpoint
	if rc.resume != "" {
		var err error
		ck, err = core.LoadCheckpoint(rc.resume)
		if err != nil && rc.salvage {
			// Damaged checkpoint under -salvage-partial: repair what the
			// tolerant loader can vouch for, and when even that is not
			// exactly resumable (seeding it would double-count once the
			// run restarts from instruction zero), fall back to a fresh
			// start rather than aborting.
			repaired, lrep, rerr := core.LoadCheckpointPolicy(rc.resume, core.RepairDrop)
			switch {
			case rerr != nil:
				fmt.Fprintf(os.Stderr, "vprof: checkpoint %s unusable (%v); starting fresh\n", rc.resume, rerr)
				ck = nil
			case !lrep.Resumable:
				fmt.Fprintf(os.Stderr, "vprof: checkpoint %s damaged beyond exact resume (%s); starting fresh\n",
					rc.resume, strings.Join(lrep.Problems, "; "))
				ck = nil
			default:
				if lrep.SitesDropped > 0 {
					fmt.Fprintf(os.Stderr, "vprof: checkpoint repaired: %d invalid sites dropped\n", lrep.SitesDropped)
				}
				ck = repaired
			}
		} else if err != nil {
			fatal(fmt.Errorf("vprof: loading checkpoint: %w", err))
		}
	}
	// A checkpoint restores raw VM state; resuming it under a different
	// program or input would execute garbage.
	if ck != nil && (ck.Program != w.Name || ck.Input != in.Name) {
		fatal(fmt.Errorf("vprof: checkpoint is for %s/%s, not %s/%s",
			ck.Program, ck.Input, w.Name, in.Name))
	}

	// RunJob builds the tool once the checkpoint has seeded the
	// profiler and restored the VM, just before the run starts.
	var ckpt *core.Checkpointer
	tool := func(vp *core.ValueProfiler) atom.Tool {
		if ck != nil {
			fmt.Fprintf(os.Stderr, "vprof: resuming %s/%s from instruction %d (%d sites)\n",
				ck.Program, ck.Input, ck.InstCount(), len(ck.Sites))
		}
		if rc.ckptPath == "" {
			return nil
		}
		ckpt = core.NewCheckpointer(vp, rc.ckptPath, rc.ckptEvery, w.Name, in.Name)
		return ckpt
	}
	r := parallel.RunJob(rc.ctx, parallel.Job{Workload: w, Prog: prog, Input: in, Options: opts, Run: rc.opts},
		parallel.Extras{Resume: ck, Tool: tool, Capture: rc.ckptPath != ""})
	if r.Refused {
		fatal(fmt.Errorf("vprof: %w", r.Err))
	}
	if r.Profile == nil {
		fatal(r.Err)
	}
	outcome, res := r.Outcome, r.Exec
	warnPartial(outcome, r.Err)

	// A final snapshot salvages the interrupted run for -resume; taken
	// before reporting so a crash while printing loses nothing.
	if ckpt != nil && outcome != vm.OutcomeCompleted {
		err := r.CaptureErr
		if err == nil {
			err = r.Checkpoint.SaveAtomic(rc.ckptPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vprof: final checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "vprof: checkpoint saved to %s; resume with -resume %s\n",
				rc.ckptPath, rc.ckptPath)
		}
	}
	if ckpt != nil && ckpt.Err() != nil {
		fmt.Fprintf(os.Stderr, "vprof: warning: a checkpoint snapshot failed during the run: %v\n", ckpt.Err())
	}

	pr := r.Profile
	reportInst(w.Name+"/"+in.Name, pr, res, prog, top)

	if outFile != "" {
		rec := pr.Record(w.Name, in.Name)
		if outcome != vm.OutcomeCompleted {
			rec.Outcome = outcome.String()
		}
		err := atomicio.WriteFile(outFile, func(f io.Writer) error {
			return rec.WriteJSON(f)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vprof: wrote %s\n", outFile)
	}
	return outcome
}

// reportInst prints the paper-style instruction-profile report: the
// aggregate line and the hottest sites. Shared by the single-run
// (instMode) and worker-pool (multiMode) paths.
func reportInst(name string, pr *core.Profile, res *vm.Result, prog *program.Program, top int) {
	m := pr.Aggregate()

	fmt.Printf("%s: %d instructions executed, %d sites profiled\n",
		name, res.InstCount, m.Sites)
	fmt.Printf("weighted: LVP %.3f  Inv-Top(1) %.3f  Inv-Top(%d) %.3f  %%zero %.3f  duty %.3f\n\n",
		m.LVP, m.InvTop1, pr.K, m.InvTopN, m.PctZero, pr.DutyCycle())

	tab := textual.New(fmt.Sprintf("top %d sites by executions", top),
		"site", "inst", "execs", "LVP", "InvTop1", "class", "top values")
	th := core.DefaultThresholds()
	for _, s := range pr.TopSites(top) {
		topvals := ""
		for i, e := range s.TNV.Top(3) {
			if i > 0 {
				topvals += " "
			}
			topvals += fmt.Sprintf("%d:%d", e.Value, e.Count)
		}
		tab.Row(s.Name, prog.Code[s.PC].String(), s.Exec,
			s.LVP(), s.InvTop(1), s.Classify(th).String(), topvals)
	}
	fmt.Print(tab.String())
}

// multiMode runs the (workload × input) cross-product supervised on a
// jobs-wide worker pool — each job with its own profiler and VM,
// retried per -retries with checkpoint resume — and prints the per-run
// reports in job order. Returns the process exit code: the first
// failing job's, following the serial-loop convention, or exitSalvaged
// when every shortfall was absorbed by -salvage-partial.
func multiMode(rc *runCfg, wNames, inNames []string, jobsN int, loadsOnly, convergent, full, pruneStatic, prunePredict bool, top int) int {
	if convergent && prunePredict {
		fatal(fmt.Errorf("vprof: -prune-predict allocates its own sampling budget; drop -convergent"))
	}
	var jobList []parallel.Job
	for _, wn := range wNames {
		w, err := workloads.ByName(strings.TrimSpace(wn))
		if err != nil {
			fatal(err)
		}
		prog, err := w.Compile()
		if err != nil {
			fatal(err)
		}
		opts := core.Options{TNV: core.DefaultTNVConfig(), TrackFull: full}
		if loadsOnly {
			opts.Filter = core.LoadsOnly
		}
		if convergent {
			cfg := core.DefaultConvergentConfig()
			opts.Convergent = &cfg
		}
		if pruneStatic {
			// Constness is per program: analyzed once here, serially,
			// then shared by every input of this workload.
			opts.Prune = analysis.AnalyzeConstness(prog).ShouldPrune
		}
		if prunePredict {
			plan := analysis.Predict(prog).Plan(core.DefaultConvergentConfig())
			opts.AdaptiveBudget = &plan
		}
		for _, inn := range inNames {
			in, err := inputByName(w, strings.TrimSpace(inn))
			if err != nil {
				fatal(err)
			}
			jobList = append(jobList, parallel.Job{
				Workload: w, Input: in, Options: opts, Run: rc.opts,
			})
		}
	}

	sjobs := make([]supervise.Job, len(jobList))
	for i := range jobList {
		sj, err := supervise.JobOf(jobList[i])
		if err != nil {
			fatal(err)
		}
		sjobs[i] = sj
	}
	res := supervise.Run(rc.ctx, jobsN, sjobs, supervise.Policy{
		MaxAttempts:     rc.retries + 1,
		AttemptDeadline: rc.jobDeadline,
		BackoffBase:     50 * time.Millisecond,
		Resume:          true,
		SalvagePartial:  rc.salvage,
	})

	code := 0
	salvaged := false
	for i := range res.Jobs {
		r := &res.Jobs[i]
		name := r.Job.Name + "/" + r.Job.InputName
		if r.Profile == nil {
			fmt.Fprintf(os.Stderr, "vprof: %s: %v\n", name, r.Err)
			if code == 0 {
				if code = exitCode(r.Outcome); code == 0 {
					code = 1
				}
			}
			continue
		}
		switch {
		case r.State == supervise.StateSalvaged:
			salvaged = true
			fmt.Fprintf(os.Stderr, "vprof: %s: salvaged partial profile after %d attempts (%s): %v\n",
				name, r.Attempts, r.Outcome, r.Err)
		case r.Attempts > 1:
			fmt.Fprintf(os.Stderr, "vprof: %s: recovered after %d attempts (%d resumed from checkpoint)\n",
				name, r.Attempts, r.Resumed)
		}
		reportInst(name, r.Profile, r.Exec, sjobs[i].Prog, top)
		fmt.Println()
	}
	if code == 0 && salvaged {
		code = exitSalvaged
	}
	return code
}

// mergeMode folds saved profile records into one and writes the merged
// record (with provenance) to the -o file.
func mergeMode(paths []string, outFile string) {
	if len(paths) < 2 {
		fatal(fmt.Errorf("vprof: -merge needs at least two profile files, got %d", len(paths)))
	}
	if outFile == "" {
		fatal(fmt.Errorf("vprof: -merge requires -o for the merged record"))
	}
	var acc *core.ProfileRecord
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fatal(err)
		}
		rec, err := core.ReadProfileRecord(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("vprof: %s: %w", p, err))
		}
		if acc == nil {
			acc = rec
			continue
		}
		acc, err = core.MergeRecords(acc, rec)
		if err != nil {
			fatal(fmt.Errorf("vprof: merging %s: %w", p, err))
		}
	}
	err := atomicio.WriteFile(outFile, func(f io.Writer) error {
		return acc.WriteJSON(f)
	})
	if err != nil {
		fatal(err)
	}
	var execs uint64
	for i := range acc.Sites {
		execs += acc.Sites[i].Exec
	}
	fmt.Printf("merged %d runs of %s: %d sites, %d profiled executions, duty %.3f\n",
		len(paths), acc.Program, len(acc.Sites), execs, acc.DutyCycle())
	for _, src := range acc.Merged {
		fmt.Printf("  from %s\n", src)
	}
	fmt.Fprintf(os.Stderr, "vprof: wrote %s\n", outFile)
}

func inputByName(w *workloads.Workload, name string) (workloads.Input, error) {
	switch name {
	case "test":
		return w.Test, nil
	case "train":
		return w.Train, nil
	}
	return workloads.Input{}, fmt.Errorf("vprof: unknown input %q (test or train)", name)
}

func memMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, top int) vm.RunOutcome {
	mp := memprof.New(memprof.Options{TNV: core.DefaultTNVConfig()})
	_, outcome := runTool(rc, in, prog, mp)
	rep := mp.Report()
	m := rep.Aggregate(nil)
	byLoc, byAccess := rep.InvariantFraction(0.9)
	fmt.Printf("%s/%s: %d locations written, %d stores; InvTop1 %.3f\n",
		w.Name, in.Name, len(rep.Locations), m.Execs, m.InvTop1)
	fmt.Printf("≥90%%-single-valued: %s of locations, %s of accesses\n\n",
		textual.Pct(byLoc), textual.Pct(byAccess))
	tab := textual.New(fmt.Sprintf("top %d locations", top),
		"addr", "region", "writes", "reads", "InvTop1", "top value")
	for _, l := range rep.TopLocations(top) {
		v, c, _ := l.Stats.TNV.TopValue()
		tab.Row(fmt.Sprintf("%#x", l.Addr), l.Region.String(), l.Writes, l.Reads,
			l.Stats.InvTop(1), fmt.Sprintf("%d:%d", v, c))
	}
	fmt.Print(tab.String())
	return outcome
}

func paramMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, top int) vm.RunOutcome {
	pp := paramprof.New(paramprof.Options{TNV: core.DefaultTNVConfig()})
	_, outcome := runTool(rc, in, prog, pp)
	tab := textual.New(fmt.Sprintf("%s/%s procedure parameters", w.Name, in.Name),
		"proc", "calls", "arg0-inv", "arg1-inv", "arg2-inv", "tuple-inv")
	for i, p := range pp.Report().Procs {
		if i >= top {
			break
		}
		cells := []any{p.Name, p.Calls}
		for j := 0; j < 3; j++ {
			if j < len(p.Args) {
				cells = append(cells, fmt.Sprintf("%.3f", p.Args[j].InvTop(1)))
			} else {
				cells = append(cells, "-")
			}
		}
		cells = append(cells, fmt.Sprintf("%.3f", p.AllArgsInvariance()))
		tab.Row(cells...)
	}
	fmt.Print(tab.String())
	return outcome
}

func regMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program) vm.RunOutcome {
	rp := regprof.New(core.DefaultTNVConfig(), false)
	_, outcome := runTool(rc, in, prog, rp)
	tab := textual.New(fmt.Sprintf("%s/%s register write streams", w.Name, in.Name),
		"reg", "writes", "LVP", "InvTop1", "InvTop10", "top value")
	for _, s := range rp.Written() {
		v, c, _ := s.TNV.TopValue()
		tab.Row(s.Name, s.Exec, s.LVP(), s.InvTop(1), s.InvTop(10), fmt.Sprintf("%d:%d", v, c))
	}
	fmt.Print(tab.String())
	return outcome
}

func depMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, top int) vm.RunOutcome {
	dp := depprof.New(depprof.DefaultOptions())
	_, outcome := runTool(rc, in, prog, dp)
	rep := dp.Report()
	fromStore, forwardable, dom := rep.Totals()
	fmt.Printf("%s/%s: store-fed %s, forwardable %s (window %d), dominant-edge %.3f\n\n",
		w.Name, in.Name, textual.Pct(fromStore), textual.Pct(forwardable), rep.Window, dom)
	tab := textual.New(fmt.Sprintf("top %d loads", top),
		"load", "execs", "store-fed", "forwardable", "edge-inv", "mean-dist")
	for i, l := range rep.Loads {
		if i >= top {
			break
		}
		tab.Row(l.Name, l.Execs,
			textual.Pct(float64(l.FromStore)/float64(l.Execs)),
			textual.Pct(float64(l.Forwardable)/float64(l.Execs)),
			fmt.Sprintf("%.3f", l.EdgeInvariance()),
			fmt.Sprintf("%.1f", l.MeanDistance()))
	}
	fmt.Print(tab.String())
	return outcome
}

func trivMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, top int) vm.RunOutcome {
	tp := trivprof.New()
	res, outcome := runTool(rc, in, prog, tp)
	rep := tp.Report()
	frac, saved, kinds := rep.Totals()
	savedShare := 0.0
	if res.Cycles > 0 {
		savedShare = float64(saved) / float64(res.Cycles)
	}
	fmt.Printf("%s/%s: trivial fraction %s; %d cycles savable (%s of run)\n",
		w.Name, in.Name, textual.Pct(frac), saved, textual.Pct(savedShare))
	fmt.Printf("kinds: zero=%d one=%d minus-one=%d pow2=%d self=%d\n\n",
		kinds[trivprof.ZeroOperand], kinds[trivprof.OneOperand], kinds[trivprof.MinusOne],
		kinds[trivprof.PowerOfTwo], kinds[trivprof.SelfOperand])
	tab := textual.New(fmt.Sprintf("top %d arithmetic sites", top),
		"site", "op", "execs", "trivial", "saved-cycles")
	for i := 0; i < top && i < len(rep.Sites); i++ {
		s := rep.Sites[i]
		tab.Row(s.Name, s.Op.Name(), s.Execs, textual.Pct(s.TrivialFraction()), s.SavedCycles())
	}
	fmt.Print(tab.String())
	return outcome
}

func procMode(rc *runCfg, w *workloads.Workload, in workloads.Input, prog *program.Program, top int) vm.RunOutcome {
	pp := procprof.New()
	_, outcome := runTool(rc, in, prog, pp)
	fmt.Printf("%s/%s: %d cycles total; top-3 procedures hold %s\n\n",
		w.Name, in.Name, pp.TotalCycles(), textual.Pct(pp.TopShare(3)))
	tab := textual.New(fmt.Sprintf("top %d procedures by exclusive cycles", top),
		"proc", "calls", "exclusive", "inclusive", "excl-share")
	for i, pt := range pp.Sorted() {
		if i >= top {
			break
		}
		share := 0.0
		if pp.TotalCycles() > 0 {
			share = float64(pt.Exclusive) / float64(pp.TotalCycles())
		}
		tab.Row(pt.Name, pt.Calls, pt.Exclusive, pt.Inclusive, textual.Pct(share))
	}
	fmt.Print(tab.String())
	return outcome
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
