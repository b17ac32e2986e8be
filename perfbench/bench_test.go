package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var testArgs = [][]int64{{7, 60}, {12345, 3000, 3}, {42, 400}}

func TestPlanDeterministic(t *testing.T) {
	a, b := makePlan(5, testArgs, roundLen), makePlan(5, testArgs, roundLen)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, makePlan(6, testArgs, roundLen)) {
		t.Fatal("a different seed gave the same request sequence")
	}
}

func TestPlanShape(t *testing.T) {
	plan := makePlan(9, testArgs, 4000)
	inputs := map[[2]int64]bool{}
	for c, reqs := range plan {
		done := map[string]bool{}    // request identities completed so far
		singles := map[string]bool{} // single-input sub-runs completed so far
		var kinds [3]int
		for k, r := range reqs {
			kinds[r.kind]++
			id := identity(r)
			switch r.kind {
			case kindRepeat:
				if !done[id] {
					t.Fatalf("caller %d request %d resubmits a job it never completed", c, k)
				}
			case kindPair:
				if len(r.inputs) != 2 || !singles[identity(request{prog: r.prog, cfg: r.cfg, inputs: r.inputs[:1]})] {
					t.Fatalf("caller %d request %d: a pair must start with a completed sub-run", c, k)
				}
			}
			if r.kind != kindRepeat {
				last := r.inputs[len(r.inputs)-1]
				key := [2]int64{int64(r.prog), last[0]}
				if inputs[key] {
					t.Fatalf("caller %d request %d reuses input %v", c, k, key)
				}
				inputs[key] = true
				if len(last) != len(testArgs[r.prog]) {
					t.Fatalf("caller %d request %d: input %v does not match the program's arguments", c, k, last)
				}
			}
			done[id] = true
			if len(r.inputs) == 1 {
				singles[id] = true
			}
		}
		for kind, want := range []float64{0.45, 0.35, 0.20} {
			if got := float64(kinds[kind]) / float64(len(reqs)); got < want-0.05 || got > want+0.05 {
				t.Errorf("caller %d: %s share %.3f, want about %.2f", c, reqKind(kind), got, want)
			}
		}
	}
}

func identity(r request) string {
	b, _ := json.Marshal([]any{r.prog, r.cfg, r.inputs})
	return string(b)
}

// A hand-built tree: a root with two passes; the first pass's two
// layer spans overlap, and one span pokes past its parent.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.traced", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bench.pass", Start: 0, End: 50},
		{ID: 3, Parent: 2, Job: 1, Name: "vm.run", Start: 5, End: 35},
		{ID: 4, Parent: 2, Job: 1, Name: "core.record", Start: 30, End: 45},
		{ID: 5, Parent: 1, Name: "bench.pass", Start: 60, End: 100},
		{ID: 6, Parent: 5, Job: 2, Name: "vm.run", Start: 60, End: 90},
		{ID: 7, Parent: 3, Job: 1, Name: "core.flush", Start: 20, End: 30},
		{ID: 8, Parent: 6, Job: 2, Name: "core.flush", Start: 85, End: 95},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 10, 2: 10, 3: 20, 4: 15, 5: 10, 6: 25, 7: 10, 8: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got, want := unattributed(spans, 1), 20.0/90.0; got != want {
		t.Fatalf("unattributed %v, want %v", got, want)
	}
	if got := perJob(spans)["vm.run"]; !reflect.DeepEqual(got, []float64{20, 25}) {
		t.Fatalf("per-job vm.run %v", got)
	}
}

// Quantiles are taken across groups' typical samples: a group's
// outliers and its sample count move nothing, and empty groups are
// skipped.
func TestAcross(t *testing.T) {
	groups := [][]float64{{1, 2, 900}, {10}, nil, {4, 4, 4, 4, 4, 5, 6}}
	d := across(groups, 0.5, medianOf)
	if d.Value != 4 || d.N != 11 {
		t.Fatalf("median across groups %+v, want 4 over 11 samples", d)
	}
	if d := across(groups, 1, fastest); d.Value != 10 || d.N != 11 {
		t.Fatalf("max across the groups' fastest samples %+v, want 10 over 11 samples", d)
	}
	if p90 := across([][]float64{{1}, {2}, {3}}, 0.9, medianOf); math.Abs(p90.Value-2.8) > 1e-9 {
		t.Fatalf("p90 across 1, 2, 3 is %v, want 2.8", p90.Value)
	}
}

// benchmarkJSON mirrors the parts of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v\ncatalog    %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v\ncatalog   %v", b.PerLayer, perLayer)
	}
}

// Each workload, run briefly and traced, prints every metric named in
// BENCHMARK.json with its unit; a second run with the same seed repeats
// every count exactly.
func TestEveryMetricPrintedAndCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	b := readBenchmarkJSON(t)
	counts := []string{"vm.insts", "vm.analysis_calls", "core.sites",
		"core.values_profiled", "core.values_skipped", "core.duty_cycle", "core.tnv_clears", "core.tnv_dropped"}
	for name, fn := range workloadFuncs {
		var first *result
		for run := 0; run < 2; run++ {
			cfg := runConfig{seed: 1, dur: 200 * time.Millisecond, trace: true, workDir: t.TempDir()}
			res, err := fn(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("%s: incorrect: %v", name, res.problems)
			}
			if first == nil {
				first = res
				checkPrinted(t, name, cfg, res, b.EndToEnd)
				checkPrinted(t, name, cfg, res, b.PerLayer)
				continue
			}
			for _, c := range counts {
				if a, b := first.metrics[c].Value, res.metrics[c].Value; a != b {
					t.Errorf("%s: %s is %v, then %v", name, c, a, b)
				}
			}
		}
	}
}

func checkPrinted(t *testing.T, name string, cfg runConfig, res *result, defs []metricDef) {
	t.Helper()
	var out strings.Builder
	line, err := report(&out, name, cfg, res, defs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got resultLine
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result line, want %d", name, len(got.Metrics), len(defs))
	}
	rows := map[string]string{}
	for _, row := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(row); len(f) == 7 && f[0] == name {
			rows[f[1]] = f[6]
		}
	}
	for _, d := range defs {
		if m := got.Metrics[d.Name]; m.Unit != d.Unit {
			t.Errorf("%s: result line has %s as %+v, want unit %q", name, d.Name, m, d.Unit)
		}
		if rows[d.Name] != d.Unit {
			t.Errorf("%s: row for %s has unit %q, want %q", name, d.Name, rows[d.Name], d.Unit)
		}
	}
}
