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
	// A null sites value is no sites, and a repeated one keeps the sites
	// read before it.
	f.Add([]byte(`{"k":10,"sites":null}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5}],"sites":null,"sites":nul`))
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
				held := s.Dropped
				for _, e := range s.Top {
					held += e.Count
				}
				if held > s.Exec || held < s.Dropped {
					t.Fatalf("TNV counts and dropped exceed executions: %+v", s)
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

// FuzzWriteProfileRecord requires the writer to match the encoder it
// replaced on every record the loader accepts, under either policy: the
// same bytes, in a slice sized exactly, which a strict load reads back
// as the loaded record. encoding/json writes an empty merged list as
// nothing (omitempty), so that one field comes back nil.
func FuzzWriteProfileRecord(f *testing.F) {
	for _, rec := range writerCases() {
		f.Add(refJSON(rec))
	}
	// Strings as a client might send them: escaped, non-ASCII, invalid
	// UTF-8 and the two line separators JSON allows raw but
	// encoding/json escapes.
	f.Add([]byte(`{"program":"a\"b\\c\u0001<&>","input":"caf` + "\xc3\xa9" + `","k":3,"outcome":"\u2028\u2029",` +
		`"merged":["` + "\xe2\x80\xa8" + `","\ud800"],"sites":[{"pc":1,"name":"bad ` + "\xff\xfe" + `","exec":2,` +
		`"top":[{"Value":-1,"Count":1}]}]}`))
	// Nil and empty slices, and every omitempty field both ways.
	f.Add([]byte(`{"k":1,"merged":[],"sites":[{"pc":1,"exec":1,"top":null},{"pc":2,"exec":1,"top":[]}]}`))
	f.Add([]byte(`{"k":1,"sites":null}`))
	f.Add([]byte(`{"k":1,"salvaged":false,"attempts":0,"skipped":0,"outcome":"","sites":[]}`))
	f.Add([]byte(`{"k":1,"salvaged":true,"attempts":2,"skipped":1,"outcome":"limit","sites":[{"pc":0,"exec":1,"dropped":1}]}`))
	// Negative values and counts of 2^64-1.
	f.Add([]byte(`{"k":2,"attempts":-4,"skipped":18446744073709551615,"sites":[{"pc":9223372036854775807,` +
		`"exec":18446744073709551615,"lvpHits":18446744073709551615,"zeros":18446744073709551615,"dropped":1,` +
		`"top":[{"Value":-9223372036854775808,"Count":18446744073709551614}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []RepairPolicy{RepairNone, RepairDrop} {
			rec, _, err := ReadProfileRecordPolicy(bytes.NewReader(data), policy)
			if err != nil {
				continue
			}
			got := rec.JSON()
			if want := refJSON(rec); !bytes.Equal(got, want) {
				t.Fatalf("policy %v: writer wrote\n%s\nencoder wrote\n%s", policy, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("policy %v: %d bytes in a slice of capacity %d", policy, len(got), cap(got))
			}
			back, err := ReadProfileRecord(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("policy %v: strict load of the written record: %v\n%s", policy, err, got)
			}
			if len(rec.Merged) == 0 {
				rec.Merged = nil
			}
			if !reflect.DeepEqual(back, rec) {
				t.Fatalf("policy %v: read back\n%+v\nloaded\n%+v", policy, back, rec)
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
// version-1 envelope; unreachableTNVCheckpoint is added from code.
func FuzzReadCheckpointPolicy(f *testing.F) {
	prog, err := asm.Assemble(ckptSrc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unreachableTNVCheckpoint())
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

// tnvFuzzDomain is the value alphabet FuzzTNVAdd draws its streams
// from: small integers, values whose signature bit (sigBit) is that of
// a small integer — 34 and 89 share 0's, 56 and 90 share 1's, and so
// on — eight 8-aligned addresses, and two negatives.
var tnvFuzzDomain = [32]int64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
	34, 89, 56, 90, 36, 58, 93, 60, 95, 62,
	0x7fff0000, 0x7fff0008, 0x7fff0010, 0x7fff0018,
	0x7fff0020, 0x7fff0028, 0x7fff0030, 0x7fff0038,
	-1, -8,
}

// FuzzTNVAdd drives one value stream through TNVTable.Add and through
// SiteStats.ObserveBatch and, after every step, compares each table
// with refTNV, the update rule the signature replaced: entries in
// order, updates, dropped, clears and the clear clock must all match.
// At the split point each table is round-tripped through
// siteState→restoreSite before the stream continues, so a signature
// the restore leaves stale shows up as a duplicate entry.
// The checkpoint validator must accept every state it round-trips: a
// check that refuses a reachable table would make a resume fail.
//
// The arguments decode to a configuration (Size 1–12, Steady 0–Size,
// ClearInterval 0–31), a stream over tnvFuzzDomain, the split point as
// a fraction of the stream, and the ObserveBatch chunk sizes (1–70,
// cycling; one chunk when empty).
func FuzzTNVAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, steady, interval, split uint8, stream, chunks []byte) {
		cfg := TNVConfig{Size: 1 + int(size)%12}
		cfg.Steady = int(steady) % (cfg.Size + 1)
		cfg.ClearInterval = uint64(interval) % 32
		vals := make([]int64, len(stream))
		for i, b := range stream {
			vals[i] = tnvFuzzDomain[int(b)%len(tnvFuzzDomain)]
		}
		cut := int(split) * len(vals) / 255
		roundTrip := func(s *SiteStats) *SiteStats {
			st := siteState(s)
			// The Add loop drives the table, not the site counters.
			checked := st
			checked.Exec = st.TNV.Updates
			if err := validateSiteState(&checked, cfg); err != nil {
				t.Fatalf("%+v: reachable state refused: %v", cfg, err)
			}
			return restoreSite(&st, cfg)
		}

		ref := &refTNV{cfg: cfg}
		site := NewSiteStats(0, "s", cfg, false)
		for i, v := range vals {
			if i == cut {
				site = roundTrip(site)
			}
			ref.Add(v)
			site.TNV.Add(v)
			checkTNV(t, site.TNV, ref, "%+v Add #%d (%d)", cfg, i, v)
		}

		ref = &refTNV{cfg: cfg}
		site = NewSiteStats(0, "s", cfg, false)
		var lvp, zeros uint64
		for off, k := 0, 0; off < len(vals); k++ {
			if off == cut {
				site = roundTrip(site)
			}
			n := len(vals) - off
			if len(chunks) > 0 {
				n = min(n, 1+int(chunks[k%len(chunks)])%70)
			}
			if off < cut {
				n = min(n, cut-off)
			}
			batch := vals[off : off+n]
			site.ObserveBatch(batch)
			for i, v := range batch {
				ref.Add(v)
				if off+i > 0 && vals[off+i-1] == v {
					lvp++
				}
				if v == 0 {
					zeros++
				}
			}
			off += n
			checkTNV(t, site.TNV, ref, "%+v ObserveBatch %v", cfg, batch)
			if site.Exec != uint64(off) || site.LVPHits != lvp || site.Zeros != zeros || site.last != vals[off-1] {
				t.Fatalf("%+v ObserveBatch %v: exec=%d lvp=%d zeros=%d last=%d, want %d %d %d %d",
					cfg, batch, site.Exec, site.LVPHits, site.Zeros, site.last, off, lvp, zeros, vals[off-1])
			}
		}
	})
}
