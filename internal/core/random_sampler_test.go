package core_test

import (
	"bytes"
	"context"
	"testing"

	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/workloads"
)

// TestRandomSamplerReproducible pins that a random-sampled record is a
// function of (program, input, probability, seed) alone: two serial
// passes serialize byte-identically, and one factory shared by every
// job of a two-wide pool gives the same records as a fresh factory per
// job. Each site's stream is derived from (seed, pc), so neither the
// order in which sites are instrumented nor how many sites or jobs a
// factory has served can shift it.
func TestRandomSamplerReproducible(t *testing.T) {
	names := []string{"compress", "dictv", "lifegrid", "sortq"}
	jobs := func(factory func() core.SamplerFactory) []parallel.Job {
		out := make([]parallel.Job, 0, len(names))
		for _, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, parallel.Job{Workload: w, Input: w.Test,
				Options: core.Options{TNV: core.DefaultTNVConfig(), Sampler: factory()}})
		}
		return out
	}
	records := func(label string, results []parallel.Result) []string {
		if err := parallel.FirstError(results); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			if r.Profile.Skipped == 0 || r.Profile.Profiled() == 0 {
				t.Fatalf("%s: %s profiled %d, skipped %d; want both non-zero at rate 0.25",
					label, r.Job.Name(), r.Profile.Profiled(), r.Profile.Skipped)
			}
			var b bytes.Buffer
			if err := r.Profile.Record(r.Job.Name(), r.Job.Input.Name).WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			out[i] = b.String()
		}
		return out
	}
	fresh := func() core.SamplerFactory { return core.NewRandomFactory(0.25, 7) }
	ctx := context.Background()
	first := records("first pass", parallel.Run(ctx, 1, jobs(fresh)))
	second := records("second pass", parallel.Run(ctx, 1, jobs(fresh)))
	shared := core.NewRandomFactory(0.25, 7)
	pooled := records("shared factory", parallel.Run(ctx, 2, jobs(func() core.SamplerFactory { return shared })))
	for i, name := range names {
		if first[i] != second[i] {
			t.Errorf("%s: two passes with the same seed serialized differently", name)
		}
		if pooled[i] != first[i] {
			t.Errorf("%s: a factory shared across a two-wide pool changed the record", name)
		}
	}
}
