package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/core"
	"valueprof/internal/vm"
)

// TestDigestStability pins the digest format: any change to the
// canonical encoding (prefix, uvarint framing, config normalization)
// breaks this golden and must bump the "vpd1" format tag, because
// persisted caches key on these strings.
func TestDigestStability(t *testing.T) {
	cfg := &JobConfig{}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	got, err := DigestOf([]byte("not-a-real-image"), [][]int64{{1, 2, 3}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "digest_stability.txt", []byte(got+"\n"))
}

func TestDigestSensitivityAndNormalization(t *testing.T) {
	base := &JobConfig{}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	image := []byte("image-a")
	d0, err := DigestOf(image, [][]int64{{1}}, base)
	if err != nil {
		t.Fatal(err)
	}

	// Every digest input changes the digest...
	if d1, _ := DigestOf([]byte("image-b"), [][]int64{{1}}, base); d1 == d0 {
		t.Error("image change did not change digest")
	}
	if d1, _ := DigestOf(image, [][]int64{{2}}, base); d1 == d0 {
		t.Error("input change did not change digest")
	}
	if d1, _ := DigestOf(image, [][]int64{{1}, {1}}, base); d1 == d0 {
		t.Error("input count change did not change digest")
	}
	loads := &JobConfig{Filter: "loads"}
	if err := loads.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d1, _ := DigestOf(image, [][]int64{{1}}, loads); d1 == d0 {
		t.Error("config change did not change digest")
	}

	// ...but spelling out the defaults does not: normalization folds
	// equivalent configs onto one cache identity.
	spelled := &JobConfig{Filter: "all", MaxAttempts: 1}
	if err := spelled.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d1, _ := DigestOf(image, [][]int64{{1}}, spelled); d1 != d0 {
		t.Errorf("explicit defaults split the cache: %s vs %s", d1, d0)
	}
}

func TestProgramCanonicalization(t *testing.T) {
	// An assembly submission and its image twin share one digest
	// because decodeProgram re-saves both to canonical bytes.
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	image, err := saveImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, fromAsm, err := decodeProgram(WireProgram{Asm: loopSrc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromAsm, image) {
		t.Fatal("asm submission did not canonicalize to the saved image")
	}
}

// testRecord returns a serialized one-site profile record: bytes the
// strict loader accepts, as every real cache entry is.
func testRecord(t *testing.T) []byte {
	t.Helper()
	cfg := core.DefaultTNVConfig()
	s := core.NewSiteStats(3, "main+3", cfg, false)
	for _, v := range []int64{7, 7, 1, 7} {
		s.Observe(v)
	}
	var buf bytes.Buffer
	if err := (&core.Profile{Sites: []*core.SiteStats{s}, K: cfg.Size}).Record("p", "i").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t)
	if err := c1.put("vpd1:abc123", rec); err != nil {
		t.Fatal(err)
	}

	// A second cache over the same directory — a restarted daemon —
	// serves the exact bytes from disk.
	c2, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.get("vpd1:abc123")
	if !ok || !bytes.Equal(got, rec) {
		t.Fatalf("disk round-trip: ok=%v got=%s", ok, got)
	}
	if _, ok := c2.get("vpd1:missing"); ok {
		t.Fatal("phantom cache hit")
	}
	entries, hits, misses := c2.stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("stats entries=%d hits=%d misses=%d", entries, hits, misses)
	}
}

// TestCacheDropsCorruptDiskEntry: a disk entry the strict loader
// rejects is never served. The lookup reports a miss, counts the entry
// as corrupt and removes the file.
func TestCacheDropsCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c1, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t)
	if err := c1.put("vpd1:abc123", rec); err != nil {
		t.Fatal(err)
	}
	path := c1.path("vpd1:abc123")
	if err := os.Truncate(path, int64(len(rec)/2)); err != nil {
		t.Fatal(err)
	}

	c2, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.get("vpd1:abc123"); ok {
		t.Fatalf("truncated entry served: %.80s", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still on disk: %v", err)
	}
	entries, hits, misses := c2.stats()
	if entries != 0 || hits != 0 || misses != 1 || c2.corrupt != 1 {
		t.Fatalf("stats entries=%d hits=%d misses=%d corrupt=%d", entries, hits, misses, c2.corrupt)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	image, err := saveImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := JobConfig{StepLimit: 9999}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Recovery refuses a manifest whose digest does not match its
	// content, so the job carries its true digest.
	digest, err := DigestOf(image, [][]int64{{5}}, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{
		ID: "j-7", Seq: 7, Client: "c", Digest: digest,
		Prog: prog, Image: image, Inputs: [][]int64{{5}},
		Config: cfg, state: StateRunning, attempts: 2, resumed: 1,
	}
	if err := j.persist(dir, ""); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(manifestPath(dir, "j-7"))
	if err != nil {
		t.Fatal(err)
	}
	// A job persisted as running died mid-run: it recovers as queued.
	if got.state != StateQueued {
		t.Fatalf("recovered state %q, want queued", got.state)
	}
	if got.Seq != 7 || got.Client != "c" || got.attempts != 2 || got.resumed != 1 {
		t.Fatalf("recovered job mismatch: %+v", got)
	}
	if got.Config.StepLimit != 9999 {
		t.Fatalf("recovered config %+v", got.Config)
	}
	if !bytes.Equal(got.Image, image) || got.Prog == nil {
		t.Fatal("recovered image/program mismatch")
	}

	// Eviction persists a running job under an overridden queued state.
	if err := j.persist(dir, StateQueued); err != nil {
		t.Fatal(err)
	}
	got, err = loadManifest(manifestPath(dir, "j-7"))
	if err != nil {
		t.Fatal(err)
	}
	if got.state != StateQueued {
		t.Fatalf("evicted state %q", got.state)
	}
}

// TestDecodeManifestRefusesDamage: recovery refuses a manifest that
// does not describe a job the daemon could have accepted, and one filed
// under another job's name. A config with its defaults left out still
// recovers: it normalizes to the config the digest covers.
func TestDecodeManifestRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Options{NoWorkers: true, StateDir: dir})
	if _, _, rerr := s.submit(loopRequest("c", 5)); rerr != nil {
		t.Fatal(rerr)
	}
	good, err := os.ReadFile(manifestPath(dir, "j-1"))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(m, cfg map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		f(m, m["config"].(map[string]any))
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"no inputs":         edit(func(m, _ map[string]any) { m["inputs"] = [][]int64{} }),
		"inputsDone past":   edit(func(m, _ map[string]any) { m["inputsDone"] = 2 }),
		"inputsDone < 0":    edit(func(m, _ map[string]any) { m["inputsDone"] = -1 }),
		"inputs changed":    edit(func(m, _ map[string]any) { m["inputs"] = [][]int64{{6}} }),
		"config invalid":    edit(func(_, cfg map[string]any) { cfg["filter"] = "stores" }),
		"config changed":    edit(func(_, cfg map[string]any) { cfg["stepLimit"] = 10 }),
		"image truncated":   edit(func(m, _ map[string]any) { m["image"] = m["image"].(string)[:40] }),
		"not a manifest":    []byte(`["j-1"]`),
		"manifest cut off":  good[:len(good)/2],
		"digest of another": edit(func(m, _ map[string]any) { m["digest"] = "vpd1:feed" }),
	} {
		if _, err := decodeManifest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := decodeManifest(edit(func(_, cfg map[string]any) { delete(cfg, "tnv") })); err != nil {
		t.Errorf("config with the default TNV left out: %v", err)
	}
	other := manifestPath(dir, "j-2")
	if err := os.WriteFile(other, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(other); err == nil {
		t.Error("job j-1's manifest recovered from j-2.json")
	}
}

// FuzzLoadManifest feeds decodeManifest arbitrary bytes, seeded from
// testdata/fuzz/FuzzLoadManifest with the manifests persist writes for
// a queued, a completed (two-input) and a salvaged job, a truncated
// manifest, and one whose image claims 2^62 instructions. It must never
// panic, and a manifest it accepts must be a job a worker can run: a
// program that fits its config's memory, a normalized config, inputs
// within which inputsDone lies, and a digest that matches them.
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := decodeManifest(data)
		if err != nil {
			return
		}
		if err := vm.CheckFit(j.Prog, j.Config.runOptions().EffectiveMemSize()); err != nil {
			t.Fatalf("accepted a program that does not fit: %v", err)
		}
		if j.Config.TNV == nil || j.Config.Filter == "" || j.Config.MaxAttempts < 1 {
			t.Fatalf("accepted an unnormalized config %+v", j.Config)
		}
		if len(j.Inputs) == 0 || j.inputsDone < 0 || j.inputsDone > len(j.Inputs) {
			t.Fatalf("accepted %d of %d inputs done", j.inputsDone, len(j.Inputs))
		}
		if d, err := DigestOf(j.Image, j.Inputs, &j.Config); err != nil || d != j.Digest {
			t.Fatalf("accepted digest %s for content digesting to %s (%v)", j.Digest, d, err)
		}
	})
}

func TestP95Index(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {10, 9}, {20, 18}, {100, 94}, {200, 189},
	}
	for _, c := range cases {
		if got := p95Index(c.n); got != c.want {
			t.Errorf("p95Index(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestInputNameDeterminism(t *testing.T) {
	a := inputName([]int64{1, 2})
	if b := inputName([]int64{1, 2}); b != a {
		t.Fatalf("same input named %q and %q", a, b)
	}
	if b := inputName([]int64{2, 1}); b == a {
		t.Fatal("different inputs share a name")
	}
	if b := inputName(nil); b == a || len(b) == 0 {
		t.Fatalf("empty input name %q", b)
	}
}
