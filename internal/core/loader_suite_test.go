package core_test

import (
	"bytes"
	"testing"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/workloads"
)

// TestSuiteRecordsLoadAlike profiles every suite workload on its test
// and train inputs, writes each record with WriteJSON, which must write
// the encoding/json encoder's bytes, and requires the one-pass loader
// and the encoding/json loader it replaced to read back equal records,
// cleanly, under both repair policies.
func TestSuiteRecordsLoadAlike(t *testing.T) {
	for _, w := range workloads.All() {
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range w.Inputs() {
			vp, err := core.NewValueProfiler(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := atom.Run(prog, in.Args, false, vp); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, in.Name, err)
			}
			rec := vp.Profile().Record(w.Name, in.Name)
			var buf bytes.Buffer
			if err := rec.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), core.RefJSON(rec)) {
				t.Errorf("%s/%s: WriteJSON's bytes differ from the encoder's", w.Name, in.Name)
			}
			for _, policy := range []core.RepairPolicy{core.RepairNone, core.RepairDrop} {
				back, rep, err := core.CompareLoaders(t, buf.Bytes(), policy)
				if err != nil {
					t.Fatalf("%s/%s, policy %v: %v", w.Name, in.Name, policy, err)
				}
				if !rep.Clean() || len(back.Sites) != len(rec.Sites) {
					t.Errorf("%s/%s, policy %v: report %v, %d of %d sites",
						w.Name, in.Name, policy, rep, len(back.Sites), len(rec.Sites))
				}
			}
		}
	}
}
