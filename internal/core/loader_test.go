package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// mkRecord builds a well-formed two-site record as JSON text.
const goodRecord = `{
 "program": "loop", "input": "test", "k": 10,
 "sites": [
  {"pc": 3, "name": "main+3", "exec": 100, "lvpHits": 90, "zeros": 0,
   "top": [{"Value": 42, "Count": 90}, {"Value": 7, "Count": 10}]},
  {"pc": 5, "name": "main+5", "exec": 50, "lvpHits": 10, "zeros": 50,
   "top": [{"Value": 0, "Count": 50}]}
 ]
}`

func TestLoaderAcceptsCleanRecord(t *testing.T) {
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(goodRecord), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean record reported dirty: %+v", rep)
	}
	if len(rec.Sites) != 2 || rec.Sites[0].PC != 3 || rec.K != 10 {
		t.Fatalf("rec: %+v", rec)
	}
}

func TestLoaderRejectsDuplicatePCs(t *testing.T) {
	dup := strings.Replace(goodRecord, `"pc": 5`, `"pc": 3`, 1)
	if _, err := ReadProfileRecord(strings.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "duplicate pc") {
		t.Errorf("strict: err = %v, want duplicate pc", err)
	}
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(dup), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sites) != 1 || rep.SitesDropped != 1 {
		t.Errorf("repair kept %d sites, dropped %d", len(rec.Sites), rep.SitesDropped)
	}
}

func TestLoaderRejectsOverflowingTopCounts(t *testing.T) {
	// Counts sum to 150 > exec 100, which would make InvTop(2) = 1.5.
	bad := strings.Replace(goodRecord, `{"Value": 7, "Count": 10}`, `{"Value": 7, "Count": 60}`, 1)
	if _, err := ReadProfileRecord(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "exceed executions") {
		t.Errorf("strict: err = %v, want count overflow", err)
	}
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SitesClamped == 0 {
		t.Error("no clamp reported")
	}
	for _, s := range rec.Sites {
		for k := 1; k <= 10; k++ {
			if inv := s.InvTop(k); inv > 1.0 {
				t.Fatalf("site %d InvTop(%d) = %v > 1", s.PC, k, inv)
			}
		}
	}
}

func TestLoaderClampsLVPAndZeros(t *testing.T) {
	bad := strings.Replace(goodRecord, `"lvpHits": 90`, `"lvpHits": 900`, 1)
	bad = strings.Replace(bad, `"zeros": 50`, `"zeros": 500`, 1)
	if _, err := ReadProfileRecord(strings.NewReader(bad)); err == nil {
		t.Error("strict accepted LVP overflow")
	}
	rec, _, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if lvp := rec.Sites[0].LVP(); lvp > 1.0 {
		t.Errorf("LVP %v > 1 after repair", lvp)
	}
	if rec.Sites[1].Zeros != rec.Sites[1].Exec {
		t.Errorf("zeros %d not clamped to exec %d", rec.Sites[1].Zeros, rec.Sites[1].Exec)
	}
}

func TestLoaderSalvagesTruncatedJSON(t *testing.T) {
	// Cut the file in the middle of the second site.
	cut := goodRecord[:strings.Index(goodRecord, `"pc": 5`)+20]
	if _, err := ReadProfileRecord(strings.NewReader(cut)); err == nil {
		t.Error("strict accepted truncated record")
	}
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(cut), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("truncation not reported")
	}
	if len(rec.Sites) != 1 || rec.Sites[0].PC != 3 {
		t.Errorf("salvaged sites: %+v", rec.Sites)
	}
}

func TestLoaderDropsNegativeAndZeroExecSites(t *testing.T) {
	bad := strings.Replace(goodRecord, `"pc": 5`, `"pc": -5`, 1)
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sites) != 1 || rep.SitesDropped != 1 {
		t.Errorf("negative pc kept: %+v", rec.Sites)
	}

	bad = strings.Replace(goodRecord, `"exec": 50`, `"exec": 0`, 1)
	rec, rep, err = ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sites) != 1 || rep.SitesDropped != 1 {
		t.Errorf("zero-exec site kept: %+v", rec.Sites)
	}
}

func TestLoaderDropsUndecodableSite(t *testing.T) {
	// A negative count cannot decode into uint64; only that site dies.
	bad := strings.Replace(goodRecord, `"Count": 50`, `"Count": -50`, 1)
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sites) != 1 || rec.Sites[0].PC != 3 || rep.SitesDropped != 1 {
		t.Errorf("sites: %+v, report %+v", rec.Sites, rep)
	}
	if _, err := ReadProfileRecord(strings.NewReader(bad)); err == nil {
		t.Error("strict accepted negative count")
	}
}

func TestLoaderRejectsAbsurdTableWidth(t *testing.T) {
	for _, k := range []string{`"k": 0`, `"k": -3`, `"k": 9999999`} {
		bad := strings.Replace(goodRecord, `"k": 10`, k, 1)
		if _, _, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop); err == nil {
			t.Errorf("accepted %s", k)
		}
	}
}

func TestLoaderTruncatesWideSites(t *testing.T) {
	bad := strings.Replace(goodRecord, `"k": 10`, `"k": 1`, 1)
	if _, err := ReadProfileRecord(strings.NewReader(bad)); err == nil {
		t.Error("strict accepted sites wider than k")
	}
	rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(bad), RepairDrop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SitesClamped == 0 {
		t.Error("no clamp reported")
	}
	for _, s := range rec.Sites {
		if len(s.Top) > 1 {
			t.Errorf("site %d keeps %d entries, k=1", s.PC, len(s.Top))
		}
	}
}

func TestLoaderSkipsUnknownFields(t *testing.T) {
	extended := strings.Replace(goodRecord, `"k": 10,`, `"k": 10, "futureField": {"a": [1,2,3]},`, 1)
	rec, err := ReadProfileRecord(strings.NewReader(extended))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sites) != 2 {
		t.Errorf("sites: %+v", rec.Sites)
	}
}

func TestLoaderNormalizesEntryOrder(t *testing.T) {
	// Entries deliberately out of count order: loader re-sorts.
	swapped := strings.Replace(goodRecord,
		`[{"Value": 42, "Count": 90}, {"Value": 7, "Count": 10}]`,
		`[{"Value": 7, "Count": 10}, {"Value": 42, "Count": 90}]`, 1)
	rec, err := ReadProfileRecord(strings.NewReader(swapped))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sites[0].Top[0].Value != 42 {
		t.Errorf("top entry %+v, want count-descending order", rec.Sites[0].Top)
	}
}

func TestLoaderPartialOutcomeRoundTrip(t *testing.T) {
	rec := &ProfileRecord{Program: "p", Input: "i", K: 10, Outcome: "cancelled",
		Sites: []SiteRecord{{PC: 1, Exec: 5, Top: []TNVEntry{{Value: 9, Count: 5}}}}}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfileRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Outcome != "cancelled" {
		t.Errorf("outcome %q", back.Outcome)
	}
}

// TestLoaderNestingLimit checks that unknown members nest as deep as
// encoding/json allows (10000 open arrays and objects within one
// decoded value, which for a site member counts the site itself) and
// no deeper, with the same verdict from the reference loader.
func TestLoaderNestingLimit(t *testing.T) {
	nested := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	for _, c := range []struct {
		data string
		ok   bool
	}{
		{`{"k":10,"x":` + nested(10000) + `,"sites":[]}`, true},
		{`{"k":10,"x":` + nested(10001) + `,"sites":[]}`, false},
		{`{"k":10,"sites":[{"pc":1,"exec":1,"x":` + nested(9999) + `}]}`, true},
		{`{"k":10,"sites":[{"pc":1,"exec":1,"x":` + nested(10000) + `}]}`, false},
	} {
		for _, policy := range []RepairPolicy{RepairNone, RepairDrop} {
			rec, rep, err := compareLoaders(t, []byte(c.data), policy)
			if ok := err == nil && rep.Clean() && len(rec.Sites) == strings.Count(c.data, `"pc"`); ok != c.ok {
				t.Errorf("policy %v, %d bytes: loaded cleanly = %v, want %v (err %v)", policy, len(c.data), ok, c.ok, err)
			}
		}
	}
}

func TestLoaderTrailingData(t *testing.T) {
	// Only whitespace may follow the record: a second record or other
	// bytes fail a strict load, and a repair load keeps the record but
	// reports it as not clean.
	for _, data := range []string{
		`{"k":10,"sites":[]}{"k":3}`,
		`{"k":10,"sites":[]} trailing`,
		goodRecord + "\n" + goodRecord,
		goodRecord + "\n\x00",
	} {
		if _, err := ReadProfileRecord(strings.NewReader(data)); err == nil {
			t.Errorf("strict loader accepted data after the record in %.60q", data)
		}
		rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(data), RepairDrop)
		if err != nil || rec.K != 10 || rep.Clean() {
			t.Errorf("repair load of %.60q: err %v, report %+v; want the record, not clean", data, err, rep)
		}
	}
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		rec, rep, err := ReadProfileRecordPolicy(strings.NewReader(goodRecord+tail), RepairDrop)
		if err != nil || !rep.Clean() || len(rec.Sites) != 2 {
			t.Errorf("whitespace %q after the record: err %v, report %+v", tail, err, rep)
		}
	}
}

// TestReadProfileRecordAllocs bounds the loader's allocations on a
// clean record of several hundred sites, as WriteJSON writes it: at
// most 2 per site (its name and its TNV table) plus 64 for the rest of
// the load. Like hookedAllocsPerRun, it is a gate the host's speed
// cannot move.
func TestReadProfileRecordAllocs(t *testing.T) {
	const sites = 500
	rec := &ProfileRecord{Program: "p", Input: "test", K: 10, Outcome: "completed"}
	for i := 0; i < sites; i++ {
		s := SiteRecord{PC: 4 * i, Name: fmt.Sprintf("main+%d", 4*i), Exec: 1000, LVPHits: 600, Zeros: 20, Dropped: 3}
		for v := 0; v < i%11; v++ {
			s.Top = append(s.Top, TNVEntry{Value: int64(7*v - 20), Count: uint64(90 - v)})
		}
		rec.Sites = append(rec.Sites, s)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadProfileRecord(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 2*sites + 64; allocs > float64(limit) {
		t.Errorf("loading a %d-site record made %.0f allocations, limit %d", sites, allocs, limit)
	}
}
