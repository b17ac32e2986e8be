package core

import (
	"bytes"
	"compress/zlib"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"valueprof/internal/atom"
	"valueprof/internal/atomicio"
	"valueprof/internal/isa"
	"valueprof/internal/vm"
)

// This file implements crash-safe periodic checkpointing of a value
// profiling run. A checkpoint captures both halves of the run's state:
// the profiler side (every site's full TNV table with its replacement
// counters, plus the scalar counters) and the machine side (a
// compressed VM snapshot). Restoring both and re-running from the
// snapshot therefore reproduces exactly the counts an uninterrupted
// run would have produced — the re-executed suffix re-observes the
// values the crash discarded.
//
// Checkpoint files are JSON for inspectability, wrapped in a small
// envelope carrying a magic string and a CRC-32 of the payload so a
// torn or bit-rotted file is detected before any of it is trusted.
// Writes go through internal/atomicio, so a crash mid-write leaves the
// previous checkpoint intact.

// DefaultCheckpointEvery is the default instruction interval between
// snapshots (~4M instructions).
const DefaultCheckpointEvery = 1 << 22

const checkpointMagic = "VPCKPT1"

// checkpointVersion is the envelope's minor version. Version 0 (the
// field is omitted by old writers) is the PR-1 format, which recorded
// only the run-wide sampler-skip total; version 1 adds the per-site
// skip counters (SiteState.Skipped) so a resumed run's duty cycle is
// attributed to the right sites; version 2 adds the per-table drop
// counter (TNVState.Dropped) so values a full, fully-steady table
// discarded stay accounted for across a resume. Readers accept every
// version up to the current one; old files stay loadable (missing
// fields restore as zero, matching what those writers could observe).
const checkpointVersion = 2

// TNVState is the full serialized state of one TNV table: every live
// entry (not just the report-time top K) plus the update, drop, and
// periodic-clear counters, so a restored table continues byte-for-byte
// where the original left off.
type TNVState struct {
	Entries    []TNVEntry `json:"entries"`
	Updates    uint64     `json:"updates"`
	Dropped    uint64     `json:"dropped,omitempty"` // envelope version ≥ 2
	SinceClear uint64     `json:"sinceClear"`
	Clears     uint64     `json:"clears"`
}

// SiteState is the checkpointed state of one profiled site.
type SiteState struct {
	PC      int      `json:"pc"`
	Name    string   `json:"name"`
	Exec    uint64   `json:"exec"`
	Skipped uint64   `json:"skipped,omitempty"` // envelope version ≥ 1
	LVPHits uint64   `json:"lvpHits"`
	Zeros   uint64   `json:"zeros"`
	Last    int64    `json:"last"`
	HasLast bool     `json:"hasLast"`
	TNV     TNVState `json:"tnv"`
}

// VMState is the checkpointed machine state. Mem holds the guest
// memory zlib-compressed (mostly zeros, so it compresses to almost
// nothing); MemLen is the uncompressed size.
type VMState struct {
	PC            int     `json:"pc"`
	Regs          []int64 `json:"regs"`
	MemLen        int     `json:"memLen"`
	Mem           []byte  `json:"mem"`
	Cycles        uint64  `json:"cycles"`
	InstCount     uint64  `json:"instCount"`
	AnalysisCalls uint64  `json:"analysisCalls"`
	Output        string  `json:"output"`
	InputPos      int     `json:"inputPos"`
	ExitStatus    int64   `json:"exitStatus"`
	Halted        bool    `json:"halted"`
}

// Checkpoint is one snapshot of a profiling run in progress.
type Checkpoint struct {
	Program string      `json:"program"`
	Input   string      `json:"input"`
	TNV     TNVConfig   `json:"tnv"`
	Skipped uint64      `json:"skipped"`
	Sites   []SiteState `json:"sites"`
	VM      *VMState    `json:"vm,omitempty"`
}

// InstCount returns the instruction count at which the checkpoint was
// taken (0 when no VM state was captured).
func (ck *Checkpoint) InstCount() uint64 {
	if ck.VM == nil {
		return 0
	}
	return ck.VM.InstCount
}

type checkpointEnvelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version,omitempty"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// WriteCheckpoint serializes ck with its integrity envelope.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	env := checkpointEnvelope{
		Magic:   checkpointMagic,
		Version: checkpointVersion,
		CRC32:   crc32.ChecksumIEEE(payload),
		Payload: payload,
	}
	return json.NewEncoder(w).Encode(&env)
}

// ReadCheckpoint deserializes and verifies a checkpoint written by
// WriteCheckpoint: magic, payload CRC, and state invariants are all
// checked before anything is trusted.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var env checkpointEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("core: not a checkpoint file (magic %q)", env.Magic)
	}
	if env.Version > checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d is newer than supported %d", env.Version, checkpointVersion)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		return nil, fmt.Errorf("core: checkpoint corrupt: crc %08x, want %08x", got, env.CRC32)
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Payload, &ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, fmt.Errorf("core: invalid checkpoint: %w", err)
	}
	return &ck, nil
}

// LoadCheckpoint reads and verifies the checkpoint file at path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// CheckpointLoadReport says what the tolerant checkpoint loader
// (ReadCheckpointPolicy under RepairDrop) recovered from a damaged
// file and how far the recovered state can be trusted.
type CheckpointLoadReport struct {
	// Resumable means the envelope verified end to end (magic, CRC,
	// known version) and the VM state validated: exact resume is safe.
	// A non-resumable checkpoint's sites are still usable for
	// reporting and merging, but restoring its machine state — or
	// seeding a profiler that then re-runs from scratch — would
	// double-count, so callers must start the run over.
	Resumable bool
	// Damaged is set when envelope-level damage (CRC mismatch, version
	// skew) was detected and bypassed.
	Damaged bool
	// SitesDropped counts per-site states discarded for violating
	// their invariants.
	SitesDropped int
	// Problems holds human-readable descriptions of what was found.
	Problems []string
}

func (r *CheckpointLoadReport) addProblem(format string, args ...any) {
	if len(r.Problems) < maxReportedProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// ReadCheckpointPolicy is the tolerant sibling of ReadCheckpoint.
// Under RepairNone it behaves identically (and a successful load
// reports Resumable). Under RepairDrop it degrades instead of
// hard-failing where anything trustworthy remains: a CRC mismatch or
// a version newer than this reader salvages every site that still
// validates but clears the VM state (Resumable=false — resuming
// unverified machine state would execute garbage), and individually
// invalid sites are dropped and counted. Structural damage that
// leaves nothing to trust — unreadable or truncated envelope, foreign
// magic, undecodable payload — still returns an error; callers treat
// that as "no checkpoint" and start fresh.
func ReadCheckpointPolicy(r io.Reader, policy RepairPolicy) (*Checkpoint, *CheckpointLoadReport, error) {
	if policy == RepairNone {
		ck, err := ReadCheckpoint(r)
		if err != nil {
			return nil, nil, err
		}
		return ck, &CheckpointLoadReport{Resumable: ck.VM != nil}, nil
	}

	rep := &CheckpointLoadReport{}
	var env checkpointEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if env.Magic != checkpointMagic {
		return nil, nil, fmt.Errorf("core: not a checkpoint file (magic %q)", env.Magic)
	}
	trusted := true
	if env.Version > checkpointVersion {
		trusted = false
		rep.Damaged = true
		rep.addProblem("version %d newer than supported %d: salvaging known fields, resume disabled", env.Version, checkpointVersion)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		trusted = false
		rep.Damaged = true
		rep.addProblem("payload crc %08x does not match recorded %08x: salvaging validating sites, resume disabled", got, env.CRC32)
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Payload, &ck); err != nil {
		return nil, nil, fmt.Errorf("core: decoding checkpoint payload: %w", err)
	}
	if err := ck.TNV.validate(); err != nil {
		// Without a trustworthy table configuration no site state is
		// interpretable.
		return nil, nil, fmt.Errorf("core: checkpoint TNV config unusable: %w", err)
	}

	kept := ck.Sites[:0]
	seen := make(map[int]bool, len(ck.Sites))
	for i := range ck.Sites {
		s := ck.Sites[i]
		if seen[s.PC] {
			rep.SitesDropped++
			rep.addProblem("dropped duplicate site pc %d", s.PC)
			continue
		}
		if err := validateSiteState(&s, ck.TNV); err != nil {
			rep.SitesDropped++
			rep.addProblem("dropped %v", err)
			continue
		}
		seen[s.PC] = true
		kept = append(kept, s)
	}
	ck.Sites = kept

	if ck.VM != nil {
		if err := validateVMState(ck.VM); err != nil {
			trusted = false
			rep.addProblem("vm state dropped: %v", err)
			ck.VM = nil
		}
	}
	if !trusted {
		ck.VM = nil
	}
	rep.Resumable = trusted && ck.VM != nil
	return &ck, rep, nil
}

// LoadCheckpointPolicy reads the checkpoint at path under the given
// repair policy (see ReadCheckpointPolicy).
func LoadCheckpointPolicy(path string, policy RepairPolicy) (*Checkpoint, *CheckpointLoadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadCheckpointPolicy(f, policy)
}

// SaveAtomic atomically replaces path with this checkpoint; a crash
// mid-write leaves the previous file untouched.
func (ck *Checkpoint) SaveAtomic(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteCheckpoint(w, ck)
	})
}

func (ck *Checkpoint) validate() error {
	if err := ck.TNV.validate(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(ck.Sites))
	for i := range ck.Sites {
		s := &ck.Sites[i]
		if seen[s.PC] {
			return fmt.Errorf("duplicate site pc %d", s.PC)
		}
		if err := validateSiteState(s, ck.TNV); err != nil {
			return err
		}
		seen[s.PC] = true
	}
	if ck.VM != nil {
		return validateVMState(ck.VM)
	}
	return nil
}

// validateSiteState enforces one site's internal invariants (PC,
// counter bounds, TNV consistency) against the checkpoint's table
// configuration.
func validateSiteState(s *SiteState, cfg TNVConfig) error {
	if s.PC < 0 {
		return fmt.Errorf("site pc %d: negative pc", s.PC)
	}
	if s.LVPHits > s.Exec || s.Zeros > s.Exec {
		return fmt.Errorf("site pc %d: counters exceed %d executions", s.PC, s.Exec)
	}
	if s.TNV.Updates != s.Exec {
		return fmt.Errorf("site pc %d: TNV updates %d != executions %d", s.PC, s.TNV.Updates, s.Exec)
	}
	if len(s.TNV.Entries) > cfg.Size {
		return fmt.Errorf("site pc %d: %d TNV entries exceed table size %d", s.PC, len(s.TNV.Entries), cfg.Size)
	}
	var sum uint64
	for _, e := range s.TNV.Entries {
		sum += e.Count
	}
	if s.TNV.Dropped > s.TNV.Updates || sum > s.TNV.Updates-s.TNV.Dropped {
		return fmt.Errorf("site pc %d: TNV counts %d + dropped %d exceed updates %d",
			s.PC, sum, s.TNV.Dropped, s.TNV.Updates)
	}
	return nil
}

// validateVMState checks the machine state RestoreVM would build a VM
// from: a memory size RestoreVM can allocate (vm.MaxMemSize bounds
// guest memory as it does at submission), and a full register file.
func validateVMState(v *VMState) error {
	if v.MemLen <= 0 || v.MemLen > vm.MaxMemSize {
		return fmt.Errorf("vm state: bad memory size %d", v.MemLen)
	}
	if len(v.Regs) != isa.NumRegs {
		return fmt.Errorf("vm state: %d registers, want %d", len(v.Regs), isa.NumRegs)
	}
	if v.InputPos < 0 {
		return fmt.Errorf("vm state: negative input position")
	}
	return nil
}

// CaptureVM records the machine state into the checkpoint.
func (ck *Checkpoint) CaptureVM(v *vm.VM) error {
	snap := v.Snapshot()
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(snap.Mem); err != nil {
		return fmt.Errorf("core: compressing vm memory: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("core: compressing vm memory: %w", err)
	}
	ck.VM = &VMState{
		PC:            snap.PC,
		Regs:          snap.Regs,
		MemLen:        len(snap.Mem),
		Mem:           buf.Bytes(),
		Cycles:        snap.Cycles,
		InstCount:     snap.InstCount,
		AnalysisCalls: snap.AnalysisCalls,
		Output:        snap.Output,
		InputPos:      snap.InputPos,
		ExitStatus:    snap.ExitStatus,
		Halted:        snap.Halted,
	}
	return nil
}

// RestoreVM rewinds v to the checkpointed machine state. The caller
// re-attaches instrumentation and re-supplies the run's input; resuming
// then continues the run as if it had never stopped.
func (ck *Checkpoint) RestoreVM(v *vm.VM) error {
	if ck.VM == nil {
		return fmt.Errorf("core: checkpoint has no vm state")
	}
	zr, err := zlib.NewReader(bytes.NewReader(ck.VM.Mem))
	if err != nil {
		return fmt.Errorf("core: decompressing vm memory: %w", err)
	}
	mem := make([]byte, ck.VM.MemLen)
	if _, err := io.ReadFull(zr, mem); err != nil {
		return fmt.Errorf("core: decompressing vm memory: %w", err)
	}
	zr.Close()
	return v.Restore(&vm.Snapshot{
		PC:            ck.VM.PC,
		Regs:          ck.VM.Regs,
		Mem:           mem,
		Cycles:        ck.VM.Cycles,
		InstCount:     ck.VM.InstCount,
		AnalysisCalls: ck.VM.AnalysisCalls,
		Output:        ck.VM.Output,
		InputPos:      ck.VM.InputPos,
		ExitStatus:    ck.VM.ExitStatus,
		Halted:        ck.VM.Halted,
	})
}

// siteState snapshots one live site.
func siteState(s *SiteStats) SiteState {
	return SiteState{
		PC:      s.PC,
		Name:    s.Name,
		Exec:    s.Exec,
		Skipped: s.Skipped,
		LVPHits: s.LVPHits,
		Zeros:   s.Zeros,
		Last:    s.last,
		HasLast: s.hasLast,
		TNV: TNVState{
			Entries:    append([]TNVEntry(nil), s.TNV.entries...),
			Updates:    s.TNV.updates,
			Dropped:    s.TNV.dropped,
			SinceClear: s.TNV.sinceClear,
			Clears:     s.TNV.clears,
		},
	}
}

// restoreSite rebuilds a live SiteStats from checkpointed state.
func restoreSite(st *SiteState, cfg TNVConfig) *SiteStats {
	s := NewSiteStats(st.PC, st.Name, cfg, false)
	s.Exec = st.Exec
	s.Skipped = st.Skipped
	s.LVPHits = st.LVPHits
	s.Zeros = st.Zeros
	s.last = st.Last
	s.hasLast = st.HasLast
	s.TNV.entries = append(s.TNV.entries[:0], st.TNV.Entries...)
	s.TNV.rebuildSig()
	s.TNV.updates = st.TNV.Updates
	s.TNV.dropped = st.TNV.Dropped
	s.TNV.sinceClear = st.TNV.SinceClear
	s.TNV.clears = st.TNV.Clears
	return s
}

// CheckpointOf snapshots the profiler and (optionally) the VM into a
// checkpoint tagged with the program and input names. Batched value
// buffers are flushed first, so the captured tables cover every
// instruction executed up to this point.
func CheckpointOf(vp *ValueProfiler, v *vm.VM, programName, inputName string) (*Checkpoint, error) {
	vp.FlushBuffers()
	ck := &Checkpoint{
		Program: programName,
		Input:   inputName,
		TNV:     vp.opts.TNV,
		// The run-wide total is still written so version-0 readers keep
		// computing the correct duty cycle from this file.
		Skipped: vp.Skipped(),
	}
	pcs := make([]int, 0, len(vp.sites))
	for pc := range vp.sites {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		s := vp.sites[pc]
		if s.Exec == 0 && s.Skipped == 0 {
			continue
		}
		ck.Sites = append(ck.Sites, siteState(s))
	}
	if v != nil {
		if err := ck.CaptureVM(v); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// Checkpointer is an atom.Tool that periodically snapshots a profiling
// run to a sidecar file. Attach it to the same run as the profiler it
// watches:
//
//	vp, _ := core.NewValueProfiler(opts)
//	ckpt := core.NewCheckpointer(vp, "run.ckpt", 0, "compress", "test")
//	atom.RunControlled(ctx, prog, ropts, vp, ckpt)
//
// A snapshot failure (disk full, permission) never kills the run: the
// error is recorded, the run continues, and the previous checkpoint
// file — written atomically — remains loadable.
type Checkpointer struct {
	Path    string
	Every   uint64
	Program string
	Input   string

	vp      *ValueProfiler
	next    uint64
	written uint64
	lastErr error
}

// NewCheckpointer creates a checkpointer snapshotting vp every `every`
// instructions (0 selects DefaultCheckpointEvery) to path.
func NewCheckpointer(vp *ValueProfiler, path string, every uint64, programName, inputName string) *Checkpointer {
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpointer{Path: path, Every: every, Program: programName, Input: inputName, vp: vp}
}

// Instrument implements atom.Tool.
func (c *Checkpointer) Instrument(ix *atom.Instrumenter) {
	ix.AddStep(func(v *vm.VM) (uint64, error) {
		if c.next == 0 {
			// Lazy arm: on a resumed run InstCount starts at the
			// checkpoint, so the first snapshot lands one full
			// interval later rather than immediately.
			c.next = v.InstCount + c.Every
			return c.next, nil
		}
		if v.InstCount < c.next {
			return c.next, nil
		}
		c.next = v.InstCount + c.Every
		if err := c.SnapshotNow(v); err != nil {
			c.lastErr = err
		}
		return c.next, nil
	})
}

// SnapshotNow writes a checkpoint of the current state immediately
// (also used on SIGINT to salvage a run being torn down).
func (c *Checkpointer) SnapshotNow(v *vm.VM) error {
	ck, err := CheckpointOf(c.vp, v, c.Program, c.Input)
	if err != nil {
		return err
	}
	if err := ck.SaveAtomic(c.Path); err != nil {
		return err
	}
	c.written++
	return nil
}

// Written returns how many checkpoints were successfully written.
func (c *Checkpointer) Written() uint64 { return c.written }

// Err returns the most recent snapshot failure, if any.
func (c *Checkpointer) Err() error { return c.lastErr }

// Seed preloads the profiler with checkpointed state so a resumed run
// continues accumulating into the restored TNV tables and counters.
// Must be called before the profiler instruments a program. The
// checkpoint's TNV configuration must match the profiler's: merging
// tables collected under different replacement policies would be
// statistically meaningless.
//
// Full-profile ground truth (TrackFull) and convergent-sampler burst
// state are not checkpointed: after a resume the full profile restarts
// empty and samplers re-converge, which only affects diagnostics, not
// the TNV profile itself.
func (p *ValueProfiler) Seed(ck *Checkpoint) error {
	if ck.TNV != p.opts.TNV {
		return fmt.Errorf("core: checkpoint TNV config %+v does not match profiler %+v", ck.TNV, p.opts.TNV)
	}
	if len(p.sites) > 0 {
		return fmt.Errorf("core: profiler already instrumented; seed before atom.Run")
	}
	p.seeded = make(map[int]*SiteStats, len(ck.Sites))
	var perSite uint64
	for i := range ck.Sites {
		st := &ck.Sites[i]
		p.seeded[st.PC] = restoreSite(st, p.opts.TNV)
		perSite += st.Skipped
	}
	// Version-0 checkpoints recorded only the run-wide skip total; keep
	// whatever the per-site counters cannot account for as an
	// unattributed baseline so DutyCycle survives the resume exactly.
	if ck.Skipped > perSite {
		p.seedSkipped = ck.Skipped - perSite
	}
	return nil
}
