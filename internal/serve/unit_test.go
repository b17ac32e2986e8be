package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/core"
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
	j := &job{
		ID: "j-7", Seq: 7, Client: "c", Digest: "vpd1:feed",
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
