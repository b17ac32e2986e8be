// vrun executes a VRISC program: either assembly source or a VPX1
// binary image produced by vasm -o (detected by its magic bytes).
//
// Usage:
//
//	vrun [-i "1 2 3"] [-stats] [-deadline 10s] [-steps N] prog.s|prog.vx
//
// -i supplies the integers consumed by the getint syscall. -deadline
// and -steps bound the run; Ctrl-C stops it cleanly. Output produced
// before an early stop is still printed. Exit codes: the guest's exit
// status on completion, 1 on fault, 124 on deadline, 125 on step-limit
// exhaustion, 130 on interrupt.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

func main() {
	inputStr := flag.String("i", "", "space-separated integers for getint")
	stats := flag.Bool("stats", false, "print instruction and cycle counts")
	deadline := flag.Duration("deadline", 0, "stop the run after this wall-clock budget (0 = none)")
	steps := flag.Uint64("steps", 0, "stop the run after N instructions (0 = VM default)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, `usage: vrun [-i "1 2 3"] [-stats] [-deadline 10s] [-steps N] prog.s`)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var prog *program.Program
	if bytes.HasPrefix(src, []byte("VPX1")) {
		prog, err = program.Load(bytes.NewReader(src))
	} else {
		prog, err = asm.Assemble(string(src))
	}
	if err == nil {
		err = vm.CheckFit(prog, vm.DefaultMemSize)
	}
	if err != nil {
		fatal(err)
	}
	input, err := parseInput(*inputStr)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := atom.RunOptions{Input: input, StepLimit: *steps}
	if *deadline > 0 {
		opts.Deadline = time.Now().Add(*deadline)
	}
	res, outcome, err := atom.RunControlled(ctx, prog, opts)

	// Whatever the guest printed before stopping is real output.
	fmt.Print(res.Output)
	if *stats {
		fmt.Fprintf(os.Stderr, "vrun: %d instructions, %d cycles, exit %d\n",
			res.InstCount, res.Cycles, res.ExitStatus)
	}
	switch outcome {
	case vm.OutcomeCompleted:
		os.Exit(int(res.ExitStatus & 0xff))
	case vm.OutcomeDeadline:
		fmt.Fprintf(os.Stderr, "vrun: deadline exceeded after %d instructions\n", res.InstCount)
		os.Exit(124)
	case vm.OutcomeLimit:
		fmt.Fprintf(os.Stderr, "vrun: %v\n", err)
		os.Exit(125)
	case vm.OutcomeCancelled:
		fmt.Fprintf(os.Stderr, "vrun: interrupted after %d instructions\n", res.InstCount)
		os.Exit(130)
	default:
		fmt.Fprintf(os.Stderr, "vrun: %v\n", err)
		os.Exit(1)
	}
}

func parseInput(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Fields(s) {
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("vrun: bad input %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
