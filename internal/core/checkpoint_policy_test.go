package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"valueprof/internal/atom"
	"valueprof/internal/vm"
)

// ckptWithVM runs the checkpoint workload to completion and snapshots
// both profiler and machine state, then returns the serialized bytes.
func ckptWithVM(t *testing.T) (*Checkpoint, []byte) {
	t.Helper()
	prog := assembleCkpt(t)
	vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
	if err != nil {
		t.Fatal(err)
	}
	v := atom.Prepare(prog, atom.RunOptions{Input: ckptInput}, vp)
	if outcome, err := v.RunControlled(context.Background()); err != nil || outcome != vm.OutcomeCompleted {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	ck, err := CheckpointOf(vp, v, "ckpt", "test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return ck, buf.Bytes()
}

// reEnvelope rewrites a serialized checkpoint through a caller-supplied
// envelope mutation, for forging damage the atomic-write discipline
// would normally prevent.
func reEnvelope(t *testing.T, data []byte, mutate func(env *checkpointEnvelope)) []byte {
	t.Helper()
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckpointRepairTruncated(t *testing.T) {
	_, data := ckptWithVM(t)
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2} {
		ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(data[:cut]), RepairDrop)
		if err == nil {
			t.Errorf("cut %d: truncated envelope yielded a checkpoint (%v, %+v)", cut, ck != nil, rep)
		}
	}
	// The intact bytes still load, and are resumable.
	ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(data), RepairDrop)
	if err != nil || !rep.Resumable || rep.Damaged || ck.VM == nil {
		t.Fatalf("intact checkpoint: err %v report %+v", err, rep)
	}
}

func TestCheckpointRepairBadCRC(t *testing.T) {
	orig, data := ckptWithVM(t)
	bad := reEnvelope(t, data, func(env *checkpointEnvelope) { env.CRC32 ^= 0xdeadbeef })

	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("strict loader accepted a CRC mismatch")
	}
	ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatalf("repair loader refused a salvageable checkpoint: %v", err)
	}
	if !rep.Damaged || rep.Resumable {
		t.Fatalf("report %+v, want damaged and not resumable", rep)
	}
	if ck.VM != nil {
		t.Error("unverified VM state survived the repair load")
	}
	if len(ck.Sites) != len(orig.Sites) {
		t.Errorf("salvaged %d of %d sites", len(ck.Sites), len(orig.Sites))
	}
}

func TestCheckpointRepairVersionSkew(t *testing.T) {
	orig, data := ckptWithVM(t)
	future := reEnvelope(t, data, func(env *checkpointEnvelope) { env.Version = checkpointVersion + 1 })

	if _, err := ReadCheckpoint(bytes.NewReader(future)); err == nil {
		t.Fatal("strict loader accepted a future envelope version")
	}
	ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(future), RepairDrop)
	if err != nil {
		t.Fatalf("repair loader refused a future version: %v", err)
	}
	if !rep.Damaged || rep.Resumable || ck.VM != nil {
		t.Fatalf("report %+v vm %v, want damaged, not resumable, no VM", rep, ck.VM != nil)
	}
	if len(ck.Sites) != len(orig.Sites) {
		t.Errorf("salvaged %d of %d sites", len(ck.Sites), len(orig.Sites))
	}
}

func TestCheckpointRepairDropsInvalidSites(t *testing.T) {
	orig, data := ckptWithVM(t)
	if len(orig.Sites) < 2 {
		t.Fatalf("need ≥2 sites, have %d", len(orig.Sites))
	}
	// Forge a semantically impossible site behind a recomputed CRC —
	// the shape silent memory corruption before the write would take.
	mangled := reEnvelope(t, data, func(env *checkpointEnvelope) {
		var ck Checkpoint
		if err := json.Unmarshal(env.Payload, &ck); err != nil {
			t.Fatal(err)
		}
		ck.Sites[0].LVPHits = ck.Sites[0].Exec + 1
		payload, err := json.Marshal(&ck)
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = payload
		env.CRC32 = crc32.ChecksumIEEE(payload)
	})

	if _, err := ReadCheckpoint(bytes.NewReader(mangled)); err == nil {
		t.Fatal("strict loader accepted an invalid site")
	}
	ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(mangled), RepairDrop)
	if err != nil {
		t.Fatalf("repair loader refused: %v", err)
	}
	if rep.SitesDropped != 1 || len(ck.Sites) != len(orig.Sites)-1 {
		t.Fatalf("dropped %d sites, kept %d (want 1 dropped of %d)", rep.SitesDropped, len(ck.Sites), len(orig.Sites))
	}
	// The envelope itself verified, so the machine state stays usable.
	if !rep.Resumable || ck.VM == nil {
		t.Errorf("report %+v, want resumable with VM state", rep)
	}
	if len(rep.Problems) == 0 || !strings.Contains(rep.Problems[0], "dropped") {
		t.Errorf("problems: %v", rep.Problems)
	}
}

// unreachableTNVCheckpoint returns a checkpoint envelope with a valid
// CRC whose one site holds TNV state no table can reach: value 1 twice,
// and a clear clock past ClearInterval. Resuming it would write a
// record the strict loader refuses ("duplicate TNV value 1").
func unreachableTNVCheckpoint() []byte {
	var buf bytes.Buffer
	WriteCheckpoint(&buf, &Checkpoint{Program: "p", Input: "i", TNV: DefaultTNVConfig(),
		Sites: []SiteState{{PC: 3, Name: "main+3", Exec: 3, TNV: TNVState{
			Entries: []TNVEntry{{Value: 1, Count: 2}, {Value: 1, Count: 1}}, Updates: 3, SinceClear: 5000,
		}}}})
	return buf.Bytes()
}

// TestCheckpointRejectsUnreachableTNVState feeds both loaders sites
// whose counters balance but whose table TNVTable.Add cannot produce.
// The strict loader must refuse each, and RepairDrop must drop just
// that site.
func TestCheckpointRejectsUnreachableTNVState(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(unreachableTNVCheckpoint())); err == nil {
		t.Error("strict loader accepted a repeated TNV value with the clear clock past its interval")
	}

	reachable := SiteState{PC: 3, Name: "main+3", Exec: 3, TNV: TNVState{
		Entries: []TNVEntry{{Value: 1, Count: 2}, {Value: 2, Count: 1}}, Updates: 3, SinceClear: 3,
	}}
	for _, tc := range []struct {
		name     string
		interval uint64
		mutate   func(s *TNVState)
	}{
		{"reachable", 2000, func(s *TNVState) {}},
		{"repeated value", 2000, func(s *TNVState) { s.Entries[1].Value = 1 }},
		{"zero count", 2000, func(s *TNVState) { s.Entries = []TNVEntry{{Value: 1, Count: 3}, {Value: 2, Count: 0}} }},
		{"ascending counts", 2000, func(s *TNVState) { s.Entries = []TNVEntry{{Value: 1, Count: 1}, {Value: 2, Count: 2}} }},
		{"clock at interval", 2000, func(s *TNVState) { s.SinceClear = 2000 }},
		{"clock without clearing", 0, func(s *TNVState) {}},
	} {
		site := reachable
		site.TNV.Entries = append([]TNVEntry(nil), reachable.TNV.Entries...)
		tc.mutate(&site.TNV)
		cfg := DefaultTNVConfig()
		cfg.ClearInterval = tc.interval
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, &Checkpoint{Program: "p", Input: "i", TNV: cfg, Sites: []SiteState{site}}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if tc.name == "reachable" {
			if err != nil {
				t.Fatalf("reachable state refused: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: strict loader accepted %+v", tc.name, site.TNV)
		}
		ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(buf.Bytes()), RepairDrop)
		if err != nil || rep.SitesDropped != 1 || len(ck.Sites) != 0 {
			t.Errorf("%s: repair loader: err %v, report %+v", tc.name, err, rep)
		}
	}
}

// TestResumeAfterMidWriteCorruption is the end-to-end satellite: a run
// dies, its sidecar checkpoint is damaged mid-write, and the resume
// path degrades to a fresh run via the repair loader instead of
// hard-failing — ending with exactly the profile an undamaged pipeline
// would have produced.
func TestResumeAfterMidWriteCorruption(t *testing.T) {
	prog := assembleCkpt(t)
	want := siteStatesOf(runUninterrupted(t, prog))

	for _, damage := range []struct {
		name   string
		mutate func(t *testing.T, data []byte) []byte
		loads  bool // repair loader returns a (non-resumable) checkpoint
	}{
		{"truncated", func(t *testing.T, data []byte) []byte { return data[:len(data)/3] }, false},
		{"bad-crc", func(t *testing.T, data []byte) []byte {
			return reEnvelope(t, data, func(env *checkpointEnvelope) { env.CRC32++ })
		}, true},
		{"version-skew", func(t *testing.T, data []byte) []byte {
			return reEnvelope(t, data, func(env *checkpointEnvelope) { env.Version = checkpointVersion + 7 })
		}, true},
	} {
		t.Run(damage.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
			if err != nil {
				t.Fatal(err)
			}
			ckpt := NewCheckpointer(vp, path, 1000, "ckpt", "test")
			killed := errors.New("injected kill")
			kill := atom.ToolFunc(func(ix *atom.Instrumenter) {
				ix.AddStep(func(v *vm.VM) (uint64, error) {
					if v.InstCount >= 7000 {
						return 0, killed
					}
					return 7000, nil
				})
			})
			if _, outcome, err := atom.RunControlled(context.Background(), prog,
				atom.RunOptions{Input: ckptInput}, vp, ckpt, kill); !errors.Is(err, killed) || outcome != vm.OutcomeFaulted {
				t.Fatalf("outcome %v err %v", outcome, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage.mutate(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			// The degradation path: strict load fails, the repair load
			// either fails too or comes back non-resumable, and the
			// caller starts over instead of dying.
			if _, err := LoadCheckpoint(path); err == nil {
				t.Fatal("strict loader accepted damaged checkpoint")
			}
			ck, rep, err := LoadCheckpointPolicy(path, RepairDrop)
			if damage.loads {
				if err != nil {
					t.Fatalf("repair load: %v", err)
				}
				if rep.Resumable || ck.VM != nil {
					t.Fatalf("damaged checkpoint reported resumable: %+v", rep)
				}
			} else if err == nil {
				t.Fatalf("repair load of %s succeeded: %+v", damage.name, rep)
			}

			fresh, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
			if err != nil {
				t.Fatal(err)
			}
			if _, outcome, err := atom.RunControlled(context.Background(), prog,
				atom.RunOptions{Input: ckptInput}, fresh); err != nil || outcome != vm.OutcomeCompleted {
				t.Fatalf("fresh run: outcome %v err %v", outcome, err)
			}
			if got := siteStatesOf(fresh); !reflect.DeepEqual(got, want) {
				t.Error("fresh-start profile differs from uninterrupted run")
			}
		})
	}
}

// TestCheckpointBoundsVMState checks that a checkpoint with a valid CRC
// but machine state no VM can be restored from is refused: a memory
// size above vm.MaxMemSize, which RestoreVM would try to allocate, or a
// register file of the wrong length. The repair loader keeps the sites
// and disables resume.
func TestCheckpointBoundsVMState(t *testing.T) {
	orig, _ := ckptWithVM(t)
	for _, c := range []struct {
		name   string
		mutate func(*VMState)
	}{
		{"memLen 1<<62", func(st *VMState) { st.MemLen = 1 << 62 }},
		{"memLen 3 GiB", func(st *VMState) { st.MemLen = 3 << 30 }},
		{"memLen above vm.MaxMemSize", func(st *VMState) { st.MemLen = vm.MaxMemSize + 1 }},
		{"3 registers", func(st *VMState) { st.Regs = st.Regs[:3] }},
	} {
		st := *orig.VM
		st.Regs = append([]int64(nil), st.Regs...)
		c.mutate(&st)
		ck := *orig
		ck.VM = &st
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, &ck); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: strict loader accepted the checkpoint", c.name)
			if st.MemLen == 1<<62 {
				// What accepting it costs: RestoreVM panics
				// (makeslice: len out of range). Of these sizes only
				// this one fails before allocating anything.
				_ = got.RestoreVM(vm.NewSized(assembleCkpt(t), 64<<10))
			}
		}
		got, rep, err := ReadCheckpointPolicy(bytes.NewReader(buf.Bytes()), RepairDrop)
		if err != nil || rep.Resumable || got.VM != nil || len(got.Sites) != len(orig.Sites) {
			t.Errorf("%s: repair loader: err %v, report %+v; want every site kept and resume disabled", c.name, err, rep)
		}
	}
}
