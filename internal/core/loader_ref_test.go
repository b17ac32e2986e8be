package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// This file keeps the encoding/json loader that ReadProfileRecordPolicy
// replaced, as the reference FuzzReadProfileRecord and
// TestSuiteRecordsLoadAlike compare the one-pass decoder against. It is
// the replaced code unchanged but for its names and three rules both
// loaders now share: only whitespace may follow the record's closing
// brace, under RepairDrop a dropped count is clamped against the TNV
// counts as they stand after their own clamp, and "sites": null reads
// as no sites, the way WriteJSON writes a record's nil Sites.

// refReadProfileRecordPolicy is ReadProfileRecordPolicy as an
// encoding/json token loop: each site is copied to a json.RawMessage and
// unmarshaled by reflection, and refValidateSite checks it with a map.
func refReadProfileRecordPolicy(r io.Reader, policy RepairPolicy) (*ProfileRecord, *LoadReport, error) {
	rec := &ProfileRecord{}
	rep := &LoadReport{}
	dec := json.NewDecoder(r)

	tok, err := dec.Token()
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading profile record: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, nil, fmt.Errorf("core: profile record is not a JSON object (starts with %v)", tok)
	}

	seen := make(map[int]bool)
fields:
	for {
		tok, err := dec.Token()
		if err != nil {
			if policy == RepairDrop && refIsTruncation(err) {
				rep.Truncated = true
				rep.addProblem("record truncated: %v", err)
				break fields
			}
			return nil, nil, fmt.Errorf("core: reading profile record: %w", err)
		}
		if d, ok := tok.(json.Delim); ok && d == '}' {
			// Only whitespace may follow the record.
			rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
			if err != nil {
				return nil, nil, fmt.Errorf("core: reading profile record: %w", err)
			}
			if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
				if policy == RepairNone {
					return nil, nil, fmt.Errorf("core: profile record is followed by other data")
				}
				rep.addProblem("ignored data after the record")
			}
			break
		}
		key, ok := tok.(string)
		if !ok {
			return nil, nil, fmt.Errorf("core: profile record has malformed key %v", tok)
		}
		switch key {
		case "program":
			err = dec.Decode(&rec.Program)
		case "input":
			err = dec.Decode(&rec.Input)
		case "outcome":
			err = dec.Decode(&rec.Outcome)
		case "salvaged":
			err = dec.Decode(&rec.Salvaged)
		case "attempts":
			err = dec.Decode(&rec.Attempts)
		case "skipped":
			err = dec.Decode(&rec.Skipped)
		case "merged":
			err = dec.Decode(&rec.Merged)
		case "k":
			err = dec.Decode(&rec.K)
		case "sites":
			err = refReadSites(dec, rec, seen, policy, rep)
			if err == nil {
				continue
			}
			var stop *refTruncatedSites
			if policy == RepairDrop && errors.As(err, &stop) {
				rep.Truncated = true
				rep.addProblem("sites array truncated: %v", stop.err)
				break fields
			}
		default:
			// Unknown field: skip its value for forward compatibility.
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			if policy == RepairDrop && refIsTruncation(err) {
				rep.Truncated = true
				rep.addProblem("record truncated in %q: %v", key, err)
				break fields
			}
			return nil, nil, fmt.Errorf("core: profile record field %q: %w", key, err)
		}
	}

	if rec.K <= 0 || rec.K > maxTableWidth {
		return nil, nil, fmt.Errorf("core: profile record has invalid table width %d", rec.K)
	}
	if rec.Attempts < 0 {
		if policy == RepairNone {
			return nil, nil, fmt.Errorf("core: profile record has negative attempt count %d", rec.Attempts)
		}
		rep.addProblem("attempt count %d clamped to 0", rec.Attempts)
		rec.Attempts = 0
	}
	// Sites wider than the declared table width are a header/site
	// mismatch; validate now that K is known.
	kept := rec.Sites[:0]
	for i := range rec.Sites {
		s := &rec.Sites[i]
		if len(s.Top) > rec.K {
			if policy == RepairNone {
				return nil, nil, fmt.Errorf("core: site pc %d has %d TNV entries, table width %d", s.PC, len(s.Top), rec.K)
			}
			rep.addProblem("site pc %d: %d TNV entries truncated to table width %d", s.PC, len(s.Top), rec.K)
			s.Top = s.Top[:rec.K]
			rep.SitesClamped++
		}
		kept = append(kept, *s)
	}
	rec.Sites = kept
	rep.SitesLoaded = len(rec.Sites)
	sort.Slice(rec.Sites, func(i, j int) bool { return rec.Sites[i].PC < rec.Sites[j].PC })
	return rec, rep, nil
}

// refTruncatedSites signals that the sites array ended mid-stream; the
// decoder cannot continue past it.
type refTruncatedSites struct{ err error }

func (t *refTruncatedSites) Error() string { return fmt.Sprintf("core: sites truncated: %v", t.err) }

func refIsTruncation(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

func refReadSites(dec *json.Decoder, rec *ProfileRecord, seen map[int]bool, policy RepairPolicy, rep *LoadReport) error {
	tok, err := dec.Token()
	if err != nil {
		return &refTruncatedSites{err: err}
	}
	if tok == nil {
		return nil // null: no sites, as when the key is missing
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("sites is not an array (starts with %v)", tok)
	}
	for dec.More() {
		// Decode to raw bytes first: a syntactically intact but
		// semantically bad site (negative count, wrong type) must not
		// kill the decoder, so the typed unmarshal happens separately.
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return &refTruncatedSites{err: err}
		}
		var s SiteRecord
		if err := json.Unmarshal(raw, &s); err != nil {
			if policy == RepairNone {
				return fmt.Errorf("undecodable site: %w", err)
			}
			rep.SitesDropped++
			rep.addProblem("dropped undecodable site: %v", err)
			continue
		}
		keep, clamped, err := refValidateSite(&s, seen, policy, rep)
		if err != nil {
			return err
		}
		if !keep {
			rep.SitesDropped++
			continue
		}
		if clamped {
			rep.SitesClamped++
		}
		seen[s.PC] = true
		rec.Sites = append(rec.Sites, s)
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return &refTruncatedSites{err: err}
	}
	return nil
}

// validateSite enforces the per-site invariants. Under RepairNone any
// violation returns an error; under RepairDrop irreparable sites are
// dropped (keep=false) and repairable counters are clamped.
func refValidateSite(s *SiteRecord, seen map[int]bool, policy RepairPolicy, rep *LoadReport) (keep, clamped bool, err error) {
	strict := policy == RepairNone
	fail := func(format string, args ...any) (bool, bool, error) {
		if strict {
			return false, false, fmt.Errorf("site pc %d: %s", s.PC, fmt.Sprintf(format, args...))
		}
		rep.addProblem("dropped site pc %d: %s", s.PC, fmt.Sprintf(format, args...))
		return false, false, nil
	}

	if s.PC < 0 {
		return fail("negative pc")
	}
	if seen[s.PC] {
		return fail("duplicate pc")
	}
	if s.Exec == 0 {
		return fail("zero executions")
	}
	if s.LVPHits > s.Exec {
		if strict {
			return false, false, fmt.Errorf("site pc %d: LVP hits %d exceed executions %d", s.PC, s.LVPHits, s.Exec)
		}
		rep.addProblem("site pc %d: LVP hits %d clamped to executions %d", s.PC, s.LVPHits, s.Exec)
		s.LVPHits = s.Exec
		clamped = true
	}
	if s.Zeros > s.Exec {
		if strict {
			return false, false, fmt.Errorf("site pc %d: zero count %d exceeds executions %d", s.PC, s.Zeros, s.Exec)
		}
		rep.addProblem("site pc %d: zero count %d clamped to executions %d", s.PC, s.Zeros, s.Exec)
		s.Zeros = s.Exec
		clamped = true
	}

	// TNV entries: no zero counts, no duplicate values, sorted by
	// descending count, and total count bounded by Exec so that
	// InvTop(k) can never exceed 1.
	entries := s.Top[:0]
	valSeen := make(map[int64]bool, len(s.Top))
	for _, e := range s.Top {
		switch {
		case e.Count == 0:
			if strict {
				return false, false, fmt.Errorf("site pc %d: TNV entry %d has zero count", s.PC, e.Value)
			}
			rep.addProblem("site pc %d: dropped zero-count TNV entry %d", s.PC, e.Value)
			clamped = true
			continue
		case valSeen[e.Value]:
			if strict {
				return false, false, fmt.Errorf("site pc %d: duplicate TNV value %d", s.PC, e.Value)
			}
			rep.addProblem("site pc %d: dropped duplicate TNV value %d", s.PC, e.Value)
			clamped = true
			continue
		}
		valSeen[e.Value] = true
		entries = append(entries, e)
	}
	s.Top = entries
	sort.SliceStable(s.Top, func(i, j int) bool {
		if s.Top[i].Count != s.Top[j].Count {
			return s.Top[i].Count > s.Top[j].Count
		}
		return s.Top[i].Value < s.Top[j].Value
	})

	var sum uint64
	for i := range s.Top {
		c := s.Top[i].Count
		if c > s.Exec-sum { // counts can exceed Exec only through corruption
			if strict {
				return false, false, fmt.Errorf("site pc %d: TNV counts exceed executions %d", s.PC, s.Exec)
			}
			rep.addProblem("site pc %d: TNV counts clamped to executions %d", s.PC, s.Exec)
			s.Top[i].Count = s.Exec - sum
			if s.Top[i].Count == 0 {
				s.Top = s.Top[:i]
			} else {
				s.Top = s.Top[:i+1]
			}
			sum = s.Exec // the entries kept now add up to Exec
			clamped = true
			break
		}
		sum += c
	}
	// Dropped values are part of Exec but held by no entry, so the
	// retained counts plus the drop counter can never exceed Exec.
	if s.Dropped > s.Exec-sum {
		if strict {
			return false, false, fmt.Errorf("site pc %d: TNV counts %d + dropped %d exceed executions %d", s.PC, sum, s.Dropped, s.Exec)
		}
		rep.addProblem("site pc %d: dropped count %d clamped to %d", s.PC, s.Dropped, s.Exec-sum)
		s.Dropped = s.Exec - sum
		clamped = true
	}
	return true, clamped, nil
}
