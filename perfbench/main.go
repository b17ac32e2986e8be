// Command perfbench is the repository benchmark. It drives one
// workload from outside the program, through the public functions of
// the internal packages, and prints every metric by name with its
// unit; its last line of output is one JSON object
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{value, unit}}}
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) also record spans around every call into a layer, and
// report the per-layer metrics;
// the spans are written to .bench_build/perfbench/spans-<workload>-<seed>.json.
// Any wrong output makes the run exit non-zero. See README.md for the workloads and the metric table.
//
//	go -C perfbench run . -workload suite-full -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
	// workDir holds the run's scratch state (daemon state directories,
	// atomic-write probes); it is removed when the run ends.
	workDir string
}

// result is a workload's outcome: its correctness verdict, operation
// counts, and every metric of the selected set.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]dist
	spans     *Tracer
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloadFuncs = map[string]func(context.Context, runConfig) (*result, error){
	"suite-full":   runSuite,
	"daemon-mixed": runDaemon,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "suite-full or daemon-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()

	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (suite-full|daemon-mixed), -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: workDir}
	res, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := res.spans.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans: %s (%d)\n", path, len(res.spans.Spans()))
	}
	line, err := report(os.Stdout, *workload, cfg, res, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", p)
	}
	fmt.Println(line)
	if !res.correct {
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints one row per metric — its value with the quartiles and
// sample count behind it — and returns the JSON result line. A metric
// of defs the workload did not produce is an error, not a silent gap.
func report(w io.Writer, workload string, cfg runConfig, res *result, defs []metricDef) (string, error) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%.0f trace=%v gomaxprocs=%d\n",
		workload, cfg.seed, cfg.dur.Seconds(), cfg.trace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# %-14s %-26s %14s %14s %14s %7s  %s\n", "workload", "metric", "value", "q1", "q3", "n", "unit")
	out := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, name := range names {
		d, ok := res.metrics[name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", name)
		}
		fmt.Fprintf(w, "  %-14s %-26s %14.6g %14.6g %14.6g %7d  %s\n", workload, name, d.Value, d.Q1, d.Q3, d.N, units[name])
		out.Metrics[name] = metricOut{Value: d.Value, Unit: units[name]}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}
