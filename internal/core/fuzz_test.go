package core

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/vm"
)

// FuzzReadProfileRecord drives both loader policies over arbitrary
// bytes. The loader must never panic, it must agree with the
// encoding/json loader it replaced (see compareLoaders), and whatever it
// accepts must satisfy the profile invariants — in particular no site
// may report Inv-Top(k) above 1.0, the property every downstream
// consumer assumes.
func FuzzReadProfileRecord(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"program":"p","input":"i","k":10,"sites":[]}`))
	f.Add([]byte(`{"program":"p","input":"i","k":10,"sites":[` +
		`{"pc":3,"name":"a","exec":100,"lvpHits":90,"zeros":5,` +
		`"top":[{"Value":7,"Count":60},{"Value":1,"Count":40}]}]}`))
	// Violations the validator must catch.
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":10,"top":[{"Value":1,"Count":999}]}]}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5},{"pc":1,"exec":5}]}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":-4,"exec":5}]}`))
	f.Add([]byte(`{"k":0,"sites":[]}`))
	f.Add([]byte(`{"program":"p","outcome":"fault","k":10,"sites":[{"pc":1,"exec":`)) // truncated
	f.Add([]byte(`{"unknown":{"nested":[1,2,3]},"k":10,"sites":[]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"k":1e99,"sites":[]}`))
	f.Add([]byte("\x00\xff\xfe"))

	// One seed per rule the decoder shares with the reference loader.
	// A trimmed canonical record, as WriteJSON writes it.
	canonical := &ProfileRecord{Program: "p", Input: "i", K: 4, Outcome: "limit", Salvaged: true,
		Attempts: 2, Skipped: 7, Merged: []string{"p/a", "p/b:limit"}, Sites: []SiteRecord{
			{PC: 1, Name: "main+1", Exec: 10, LVPHits: 4, Zeros: 2, Dropped: 1,
				Top: []TNVEntry{{Value: -3, Count: 5}, {Value: 9, Count: 4}}},
			{PC: 6, Name: "f+0", Exec: 3},
		}}
	var buf bytes.Buffer
	if err := canonical.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Escaped and non-ASCII strings, in values and in keys.
	f.Add([]byte(`{"program":"pé\n\"q\"","input":"caf` + "\xc3\xa9" + `","k":10,"sites":[` +
		`{"pc":1,"name":"a\\b\/c\ud800A","exec":5,"top":[{"Value":1,"Count":5}]},` +
		`{"pc":2,"name":"bad ` + "\xff\xfe" + ` utf8","exec":1},{"pc":3,"name":"\x","exec":1}]}`))
	// Keys matched case-insensitively in sites and entries (ſ folds to
	// s), exactly at the top level.
	f.Add([]byte(`{"K":3,"k":10,"Sites":[1],"sites":[{"PC":1,"EXEC":5,"lvpHit` + "ſ" + `":3,` +
		`"Top":[{"value":1,"COUNT":5}]}]}`))
	// Nulls and repeated keys: a repeated "top" or "merged" decodes over
	// the earlier array, and a repeated "sites" appends.
	f.Add([]byte(`{"program":"a","program":null,"k":10,"k":null,"merged":["x","y"],"merged":[null],` +
		`"sites":[{"pc":1,"pc":2,"exec":5,"name":"n","name":null,` +
		`"top":[{"Value":1,"Count":2},{"Value":3,"Count":3}],"top":[{"Count":4}],"top":[null,{}]}],` +
		`"sites":[null,{"pc":7,"exec":1,"top":null},{"pc":8,"exec":1,"top":[]}]}`))
	// Unknown members of every shape, nested, at the top and in sites
	// and entries. (TestLoaderNestingLimit covers encoding/json's depth
	// limit, with inputs too large to mutate usefully.)
	f.Add([]byte(`{"x":{"a":[{"b":null,"c":true}],"d":-1.5e3},"k":10,"sites":[{"pc":1,"exec":2,` +
		`"extra":[[{"y":[]}],"s",false],"top":[{"Value":1,"Count":2,"z":{"q":[1,2]}}]}]}`))
	// Wrong-typed values at the top level and in sites.
	f.Add([]byte(`{"k":"10","sites":[]}`))
	f.Add([]byte(`{"k":10,"salvaged":1,"merged":[1],"sites":[]}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":"1","exec":5},{"pc":2,"exec":5,"top":{}},{"pc":3,"exec":true},` +
		`{"pc":4,"exec":2,"top":[[1]]},5,"s",[1],true]}`))
	f.Add([]byte(`{"k":10,"sites":5}`))
	f.Add([]byte(`{"k":10,"sites":{"a":1}}`))
	// Fractional, exponent-form and overflowing numbers.
	f.Add([]byte(`{"k":10,"sites":[{"pc":1.0,"exec":5},{"pc":2,"exec":1e2},{"pc":3,"exec":18446744073709551616},` +
		`{"pc":9223372036854775808,"exec":1},{"pc":4,"exec":-0},` +
		`{"pc":-0,"exec":18446744073709551615,"top":[{"Value":-9223372036854775808,"Count":1}]}]}`))
	f.Add([]byte(`{"k":1.5,"sites":[]}`))
	f.Add([]byte(`{"k":10,"sites":1e400}`))
	// Truncation inside and outside the sites array, and syntax errors
	// on both sides of its bounds.
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5},{"pc":2,"ex`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5}],"merged":["a"],"merged":["b"`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5} x]}`))
	f.Add([]byte(`{"k":10,"sites" [{"pc":1,"exec":5}]}`))
	f.Add([]byte(`{"k":10 x,"sites":[]}`))
	// Bytes after the record.
	f.Add([]byte(`{"k":10,"sites":[]}{"k":3}`))
	f.Add([]byte(`{"k":10,"sites":[]} trailing`))
	f.Add([]byte("{\"k\":10,\"sites\":[]} \n\t\r"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []RepairPolicy{RepairNone, RepairDrop} {
			rec, rep, err := compareLoaders(t, data, policy)
			if err != nil {
				continue
			}
			if rec == nil || rep == nil {
				t.Fatalf("policy %v: nil record or report without error", policy)
			}
			if rec.K < 1 || rec.K > maxTableWidth {
				t.Fatalf("accepted out-of-range k %d", rec.K)
			}
			seen := make(map[int]bool)
			for i := range rec.Sites {
				s := &rec.Sites[i]
				if s.PC < 0 || s.Exec <= 0 || seen[s.PC] {
					t.Fatalf("accepted invalid site %+v", s)
				}
				seen[s.PC] = true
				if s.LVPHits > s.Exec || s.Zeros > s.Exec {
					t.Fatalf("counters exceed executions: %+v", s)
				}
				// Checking every k up to rec.K is quadratic when the
				// table is wide; the low ks and k = K cover the sum.
				for _, k := range []int{1, 2, 3, rec.K} {
					if inv := s.InvTop(k); inv < 0 || inv > 1 {
						t.Fatalf("InvTop(%d) = %v out of [0,1] for %+v", k, inv, s)
					}
				}
			}
		}
	})
}

// compareLoaders loads data under policy with ReadProfileRecordPolicy
// and with the encoding/json loader it replaced
// (refReadProfileRecordPolicy), and fails t unless the two agree on
// whether the input is accepted, on the decoded record, and on the
// report's counts; problem texts may differ. It returns
// ReadProfileRecordPolicy's result.
func compareLoaders(t testing.TB, data []byte, policy RepairPolicy) (*ProfileRecord, *LoadReport, error) {
	t.Helper()
	rec, rep, err := ReadProfileRecordPolicy(bytes.NewReader(data), policy)
	want, wantRep, wantErr := refReadProfileRecordPolicy(bytes.NewReader(data), policy)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("policy %v: error %v, reference error %v", policy, err, wantErr)
	}
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("policy %v: record\n%+v\nreference record\n%+v", policy, rec, want)
	}
	type counts struct {
		loaded, dropped, clamped int
		truncated                bool
	}
	got := counts{rep.SitesLoaded, rep.SitesDropped, rep.SitesClamped, rep.Truncated}
	if ref := (counts{wantRep.SitesLoaded, wantRep.SitesDropped, wantRep.SitesClamped, wantRep.Truncated}); got != ref {
		t.Fatalf("policy %v: report %+v, reference report %+v (problems %q, reference %q)",
			policy, got, ref, rep.Problems, wantRep.Problems)
	}
	return rec, rep, nil
}

// FuzzReadCheckpointPolicy drives both checkpoint loader policies over
// arbitrary bytes, as they are and resealed: with the envelope's CRC
// recomputed over the payload it carries, so that a mutated payload
// reaches the payload decoder and the state validators instead of dying
// at the CRC check. Neither policy may panic, and every checkpoint
// reported resumable must restore into a small VM without a panic.
// The seed corpus (testdata/fuzz/FuzzReadCheckpointPolicy) holds a
// checkpoint of a 64 KiB-memory run, one without VM state, and a
// version-1 envelope.
func FuzzReadCheckpointPolicy(f *testing.F) {
	prog, err := asm.Assemble(ckptSrc)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if sealed, ok := reseal(data); ok {
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			for _, policy := range []RepairPolicy{RepairNone, RepairDrop} {
				ck, rep, err := ReadCheckpointPolicy(bytes.NewReader(in), policy)
				if err != nil {
					continue
				}
				if ck == nil || rep == nil {
					t.Fatalf("policy %v: nil checkpoint or report without error", policy)
				}
				if rep.Resumable {
					// An error is a fine outcome (a damaged memory
					// stream, say); a panic is not.
					_ = ck.RestoreVM(vm.NewSized(prog, 64<<10))
				}
			}
		}
	})
}

// reseal returns the checkpoint envelope in data with its CRC
// recomputed over its payload; ok is false if data holds no envelope.
func reseal(data []byte) ([]byte, bool) {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	// The envelope is re-encoded with the payload compacted, so the CRC
	// must cover the compacted bytes.
	var payload bytes.Buffer
	if err := json.Compact(&payload, env.Payload); err != nil {
		return nil, false
	}
	env.Payload = payload.Bytes()
	env.CRC32 = crc32.ChecksumIEEE(env.Payload)
	sealed, err := json.Marshal(&env)
	return sealed, err == nil
}
