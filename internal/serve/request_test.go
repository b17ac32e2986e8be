package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/core"
)

// loopImage is loopSrc as a canonical base64 image: the form every
// perfbench request takes.
func loopImage(tb testing.TB) string {
	tb.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		tb.Fatal(err)
	}
	image, err := saveImage(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(image)
}

// plainBodies are request bodies in the shape clients write: an image
// program and each of perfbench's three configs (default, loads,
// convergent), single- and two-input, plus every config field spelled
// out. parseRequest must take all of them.
func plainBodies(tb testing.TB) [][]byte {
	tb.Helper()
	conv := core.DefaultConvergentConfig()
	image := loopImage(tb)
	var bodies [][]byte
	for _, cfg := range []JobConfig{
		{},
		{Filter: "loads"},
		{Convergent: &WireConvergent{BurstLen: conv.BurstLen, InitialSkip: conv.InitialSkip, MaxSkip: conv.MaxSkip, Epsilon: conv.Epsilon}},
		{
			Filter: "all", TNV: &WireTNV{Size: 8, Steady: 4, ClearInterval: 1000},
			StepLimit: 1 << 62, DeadlineMs: 60000, AttemptDeadlineMs: 5000, MaxAttempts: 3,
			MemSize: 1 << 16, ChargeHooks: true, SalvagePartial: true,
		},
	} {
		for _, inputs := range [][][]int64{{{12345, -7, 0}}, {{1 << 62}, {-1 << 63, 9}}} {
			b, err := json.Marshal(JobRequest{Client: "tenant-0", Program: WireProgram{Image: image}, Inputs: inputs, Config: cfg})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, b)
		}
	}
	return append(bodies,
		[]byte(" {\n \"inputs\": [[], [ 1 , 2 ]],\t\"program\": {\"image\": \"aGk=\"}, \"config\": {\"tnv\": {}, \"convergent\": {\"epsilon\": -0.5e-3}}}\r\n"),
		[]byte(`{"client":"","program":{},"inputs":[],"config":{"convergent":{"epsilon":1E+2}}}`),
	)
}

// TestParseRequestTakesPlainBodies: the one-pass decoder accepts the
// plain shape, so a client's warm hit skips encoding/json, and decodes
// it exactly as encoding/json does.
func TestParseRequestTakesPlainBodies(t *testing.T) {
	for _, body := range plainBodies(t) {
		got, ok := parseRequest(body)
		if !ok {
			t.Errorf("plain body refused: %.120s", body)
			continue
		}
		var want JobRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("plain body %.120s\n got %+v\nwant %+v", body, *got, want)
		}
	}
}

// fuzzBodyLimit is the MaxBody FuzzDecodeRequest reads under: small,
// so the fuzzer reaches the limit often.
const fuzzBodyLimit = 1024

// FuzzDecodeRequest checks the submit handler's read and decode
// (readRequest) against the encoding/json Decoder it replaced, each
// reading the body through a MaxBytesReader. On every body the decoded
// requests must be equal under reflect.DeepEqual (a nil slice is not an
// empty one) and the error texts identical. A request that decodes must
// then survive JobConfig.Normalize, failing only with class config.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range plainBodies(f) {
		if len(b) <= fuzzBodyLimit {
			f.Add(b)
		}
	}
	for _, tc := range submitErrorCases(f) {
		b, ok := tc.body.(string)
		if !ok {
			data, err := json.Marshal(tc.body)
			if err != nil {
				f.Fatal(err)
			}
			b = string(data)
		}
		f.Add([]byte(b))
	}
	for _, s := range []string{
		`{"client":"a\"bé\n","program":{"asm":"x"},"inputs":[[1]]}`, // escapes
		"{\"client\":\"caf\xc3\xa9\",\"inputs\":[[1]]}",             // non-ASCII
		`{"Client":"x","PROGRAM":{"Image":"aGk="},"inputs":[[1]]}`,  // case-variant keys
		`{"client":"a","client":"b","config":{"filter":"all","filter":"loads"}}`,
		`{"config":{"tnv":{"size":1},"tnv":{"steady":1}}}`, // a repeated object merges in encoding/json
		`{"inputs":[[1e3]],"config":{"maxAttempts":1e3}}`,
		`{"inputs":[[-0]],"config":{"stepLimit":-0,"memSize":1.0}}`,
		`{"inputs":[[9223372036854775808]],"config":{"stepLimit":18446744073709551616}}`,
		`{"config":{"convergent":{"epsilon":1e999}}}`,
		`{"config":{"convergent":{"epsilon":05}},"inputs":[[01]]}`, // leading zeros
		`{"client":null,"inputs":null,"config":{"tnv":null}}`,
		`{"inputs":[[1]],"config":{"chargeHooks":"true","salvagePartial":1}}`,
		`{"inputs":[[1]]} trailing junk`,
		`{"inputs":[[1]]}{"inputs":[[2]]}`,
		`{"unknown":[1,{"x":null}],"inputs":[[1]]}`,
		`{"inputs":[[1,2],[3]],"program":{"image":"aGk="`, // truncated
		`[[1]]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		read := func() io.ReadCloser {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), fuzzBodyLimit)
		}
		got, err := readRequest(read(), int64(len(body)), fuzzBodyLimit)
		var want JobRequest
		wantErr := json.NewDecoder(read()).Decode(&want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode error %v, encoding/json's %v", err, wantErr)
		}
		if err != nil {
			var a, b *http.MaxBytesError
			if err.Error() != wantErr.Error() || errors.As(err, &a) != errors.As(wantErr, &b) {
				t.Fatalf("decode error %q, encoding/json's %q", err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("decoded %+v, encoding/json %+v", *got, want)
		}
		cfg := got.Config
		if err := cfg.Normalize(); err != nil {
			var re *RequestError
			if !errors.As(err, &re) || re.Class != ClassConfig {
				t.Fatalf("Normalize failed outside class config: %v", err)
			}
		}
	})
}
