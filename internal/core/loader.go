package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// ReadProfileRecord deserializes and validates a record written by
// WriteJSON, rejecting it outright on any violation (RepairNone). A
// record it returns never violates the profile invariants: site PCs
// are unique and non-negative, per-site counters satisfy
// LVPHits ≤ Exec, Zeros ≤ Exec and sum(Top counts) + Dropped ≤ Exec
// (hence InvTop(k) ≤ 1), and TNV entries are sorted by descending
// count.
func ReadProfileRecord(r io.Reader) (*ProfileRecord, error) {
	rec, _, err := ReadProfileRecordPolicy(r, RepairNone)
	return rec, err
}

// ReadProfileRecordPolicy is the validating loader behind
// ReadProfileRecord. Under RepairDrop it tolerates damaged input —
// truncated JSON, undecodable sites, impossible counters — salvaging
// every site that validates and reporting what was lost; it fails only
// when nothing trustworthy remains (unreadable header or an invalid
// table width). The returned record satisfies the same invariants as
// ReadProfileRecord under either policy. Only whitespace may follow the
// record's closing brace: anything else fails the load under RepairNone
// and is reported as a problem under RepairDrop.
//
// The record is decoded in one pass over its bytes, straight into
// ProfileRecord, SiteRecord and TNVEntry, and accepts exactly what
// encoding/json would: a fractional, exponent-form, out-of-range or
// wrong-typed value is a type error, null leaves a field unchanged (and
// sets a slice to nil), repeated keys are last-wins, site and entry keys
// also match case-insensitively, and unknown members of any shape are
// skipped. A string holding an escape or a non-ASCII byte is decoded by
// encoding/json itself.
func ReadProfileRecordPolicy(r io.Reader, policy RepairPolicy) (*ProfileRecord, *LoadReport, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading profile record: %w", err)
	}
	d := &recordDecoder{data: data, policy: policy, rec: &ProfileRecord{}, rep: &LoadReport{}, maxPC: -1}
	if err := d.record(); err != nil {
		return nil, nil, err
	}
	rec, rep := d.rec, d.rep

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
	}
	rep.SitesLoaded = len(rec.Sites)
	if d.seen != nil { // some site arrived out of PC order
		slices.SortFunc(rec.Sites, func(a, b SiteRecord) int { return cmp.Compare(a.PC, b.PC) })
	}
	return rec, rep, nil
}

// readAll reads r to its end, as io.ReadAll does. A reader over memory
// that reports how much it holds (bytes.Reader, bytes.Buffer,
// strings.Reader) is read into one buffer of that size rather than one
// grown step by step, which would cost a quarter of the load.
func readAll(r io.Reader) ([]byte, error) {
	size := bytes.MinRead
	if lr, ok := r.(interface{ Len() int }); ok {
		size += lr.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// maxNestingDepth is encoding/json's limit on the arrays and objects
// open at once within one decoded value.
const maxNestingDepth = 10000

// recordDecoder holds the state of one ReadProfileRecordPolicy pass.
//
// The record's errors fall in three kinds. A scanError is a syntax
// error or an early end of the input. A type error (typeErr) is a
// syntactically valid value of the wrong JSON type for its field; it
// is recorded while decoding goes on to the end of the enclosing site
// or top-level member, which is where encoding/json reports it. Any
// other error comes from validation.
type recordDecoder struct {
	data   []byte
	pos    int
	policy RepairPolicy
	rec    *ProfileRecord
	rep    *LoadReport

	// typeErr is the first type error in the site or top-level member
	// being decoded.
	typeErr error
	// maxPC is the largest PC of a kept site. seen, the set of kept PCs,
	// is built only once a site arrives with a PC not above maxPC.
	maxPC int
	seen  map[int]bool
	// entries and order are buffers reused from site to site.
	entries []TNVEntry
	order   []int32
}

// A scanError is a syntax error in the record's JSON text, or (end) the
// text ending inside a value.
type scanError struct {
	msg string
	off int
	end bool
}

func (e *scanError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

// isScanError reports whether err is a syntax error or an early end;
// isEnd, whether it is an early end.
func isScanError(err error) bool {
	var se *scanError
	return errors.As(err, &se)
}

func isEnd(err error) bool {
	var se *scanError
	return errors.As(err, &se) && se.end
}

// syntax reports that the byte at d.pos does not belong where it is,
// or that the input ends there.
func (d *recordDecoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return &scanError{msg: "unexpected end of JSON input", off: d.pos, end: true}
	}
	return &scanError{msg: fmt.Sprintf("invalid character %q %s", d.data[d.pos], context), off: d.pos}
}

// ws skips whitespace and returns the byte after it, or 0 at the end of
// the input (a NUL byte is invalid wherever it stands, so callers need
// not tell the two apart before calling syntax).
func (d *recordDecoder) ws() byte {
	data, i := d.data, d.pos
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

// record decodes the top-level object. Its members are read the way the
// encoding/json token loop this decoder replaced read them: keys match
// exactly, a repeated "sites" appends, and under RepairDrop an early end
// anywhere, or any syntax error inside "sites", ends the load as a
// truncated record.
func (d *recordDecoder) record() error {
	if d.ws() != '{' {
		if d.pos == len(d.data) {
			return fmt.Errorf("core: reading profile record: %w", io.EOF)
		}
		return fmt.Errorf("core: profile record is not a JSON object (starts with %q)", d.data[d.pos])
	}
	d.pos++
	if d.ws() == '}' {
		d.pos++
		return d.trailing()
	}
	for {
		if d.ws() != '"' {
			return d.stop(d.syntax("looking for beginning of object key string"), nil)
		}
		key, err := d.key()
		if err != nil {
			return d.stop(err, nil)
		}
		if string(key) == "sites" {
			err = d.sites()
			if err != nil && d.policy == RepairDrop && isScanError(err) {
				d.rep.Truncated = true
				d.rep.addProblem("sites array truncated: %v", err)
				return nil
			}
		} else {
			err = d.field(key)
		}
		if err != nil {
			return d.stop(err, key)
		}
		switch d.ws() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return d.trailing()
		default:
			return d.stop(d.syntax("after object key:value pair"), nil)
		}
	}
}

// stop ends the load at err, met outside the sites array (in the member
// named key, if any). Under RepairDrop an early end keeps what was
// decoded as a truncated record; anything else fails the load.
func (d *recordDecoder) stop(err error, key []byte) error {
	if d.policy == RepairDrop && isEnd(err) {
		d.rep.Truncated = true
		d.rep.addProblem("record truncated: %v", err)
		return nil
	}
	if key != nil {
		return fmt.Errorf("core: profile record field %q: %w", key, err)
	}
	return fmt.Errorf("core: reading profile record: %w", err)
}

// trailing checks that only whitespace follows the record.
func (d *recordDecoder) trailing() error {
	if d.ws(); d.pos == len(d.data) {
		return nil
	}
	if d.policy == RepairNone {
		return fmt.Errorf("core: profile record is followed by other data at offset %d", d.pos)
	}
	d.rep.addProblem("ignored data after the record at offset %d", d.pos)
	return nil
}

// field decodes the value of the top-level member key (other than
// "sites"), from its colon on.
func (d *recordDecoder) field(key []byte) error {
	if d.ws() != ':' {
		return d.syntax("after object key")
	}
	d.pos++
	d.typeErr = nil
	rec := d.rec
	var err error
	switch string(key) {
	case "program":
		err = d.stringInto(&rec.Program, 0, "program")
	case "input":
		err = d.stringInto(&rec.Input, 0, "input")
	case "outcome":
		err = d.stringInto(&rec.Outcome, 0, "outcome")
	case "salvaged":
		err = d.boolInto(&rec.Salvaged, 0, "salvaged")
	case "attempts":
		err = intInto(d, &rec.Attempts, 0, "attempts")
	case "skipped":
		err = d.uintInto(&rec.Skipped, 0, "skipped")
	case "merged":
		err = d.merged()
	case "k":
		err = intInto(d, &rec.K, 0, "k")
	default:
		// Unknown field: skip its value for forward compatibility.
		err = d.skip(0)
	}
	if err == nil {
		err = d.typeErr
	}
	return err
}

// sites decodes the "sites" member from its colon to its closing
// bracket, keeping, dropping or rejecting each site as it completes.
// The replaced loader read the sites array token by token, so the array
// does not count toward the nesting depth of the sites in it.
func (d *recordDecoder) sites() error {
	if d.ws() != ':' {
		return d.syntax("after object key")
	}
	d.pos++
	switch d.ws() {
	case '[':
		return d.array(0, d.site)
	case '{':
		return errors.New("sites is not an array (starts with {)")
	}
	start := d.pos
	if err := d.skip(0); err != nil {
		return err
	}
	lit := d.data[start:d.pos]
	if string(lit) == "null" {
		// No sites, as when the key is missing: WriteJSON spells a
		// record's nil Sites this way.
		return nil
	}
	// A number beyond float64's range failed as a token, which the
	// replaced loader took for a truncated sites array.
	if c := lit[0]; c == '-' || isDigit(c) {
		if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
			return &scanError{msg: fmt.Sprintf("number %s out of range", lit), off: start}
		}
	}
	return fmt.Errorf("sites is not an array (starts with %s)", lit)
}

// site decodes one element of the sites array as json.Unmarshal decodes
// a SiteRecord, then keeps, drops or rejects it.
func (d *recordDecoder) site() error {
	var s SiteRecord
	d.typeErr = nil
	var err error
	switch d.ws() {
	case '{':
		err = d.object(1, func(key []byte) error { return d.siteField(&s, key) })
	case 'n':
		err = d.literal("null") // a null site decodes as the zero SiteRecord
	default:
		err = d.mismatch(0, "SiteRecord")
	}
	if err != nil {
		return err
	}
	if d.typeErr != nil {
		if d.policy == RepairNone {
			return fmt.Errorf("undecodable site: %w", d.typeErr)
		}
		d.rep.SitesDropped++
		d.rep.addProblem("dropped undecodable site: %v", d.typeErr)
		return nil
	}
	keep, clamped, err := d.validateSite(&s)
	if err != nil {
		return err
	}
	if !keep {
		d.rep.SitesDropped++
		return nil
	}
	if clamped {
		d.rep.SitesClamped++
	}
	if d.seen != nil {
		d.seen[s.PC] = true
	}
	d.maxPC = max(d.maxPC, s.PC)
	d.rec.Sites = append(d.rec.Sites, s)
	return nil
}

// siteFields and entryFields are the JSON names of the SiteRecord and
// TNVEntry fields.
var (
	siteFields  = []string{"pc", "name", "exec", "lvpHits", "zeros", "dropped", "top"}
	entryFields = []string{"Value", "Count"}
)

// siteField decodes the value of the site member key into s.
func (d *recordDecoder) siteField(s *SiteRecord, key []byte) error {
	switch string(key) {
	case "pc":
		return intInto(d, &s.PC, 1, "SiteRecord.pc")
	case "name":
		return d.stringInto(&s.Name, 1, "SiteRecord.name")
	case "exec":
		return d.uintInto(&s.Exec, 1, "SiteRecord.exec")
	case "lvpHits":
		return d.uintInto(&s.LVPHits, 1, "SiteRecord.lvpHits")
	case "zeros":
		return d.uintInto(&s.Zeros, 1, "SiteRecord.zeros")
	case "dropped":
		return d.uintInto(&s.Dropped, 1, "SiteRecord.dropped")
	case "top":
		return d.top(s)
	}
	if name := foldField(key, siteFields); name != "" {
		return d.siteField(s, []byte(name))
	}
	return d.skip(1)
}

// top decodes a site's "top" array the way encoding/json decodes into
// an existing slice: each element is decoded over what the slice's
// backing array already holds there, so a repeated "top" key or a null
// element shows earlier values; an empty array gives an empty non-nil
// slice and null gives nil. Elements are decoded into a buffer reused
// from site to site and copied out, so the site's table costs one
// allocation.
func (d *recordDecoder) top(s *SiteRecord) error {
	switch d.ws() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		s.Top = nil
		return nil
	case '[':
	default:
		return d.mismatch(1, "SiteRecord.top")
	}
	buf := append(d.entries[:0], s.Top[:cap(s.Top)]...)
	n := 0
	err := d.array(2, func() error {
		if n == len(buf) {
			buf = append(buf, TNVEntry{})
		}
		n++
		return d.entry(&buf[n-1])
	})
	d.entries = buf
	if err != nil {
		return err
	}
	switch {
	case n == 0:
		s.Top = []TNVEntry{}
	case n <= cap(s.Top):
		s.Top = s.Top[:n]
		copy(s.Top, buf)
	default:
		s.Top = slices.Clone(buf)
	}
	return nil
}

// entry decodes one element of a "top" array into e.
func (d *recordDecoder) entry(e *TNVEntry) error {
	switch d.ws() {
	case '{':
		return d.object(3, func(key []byte) error { return d.entryField(e, key) })
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(2, "TNVEntry")
}

// entryField decodes the value of the entry member key into e.
func (d *recordDecoder) entryField(e *TNVEntry, key []byte) error {
	switch string(key) {
	case "Value":
		return intInto(d, &e.Value, 3, "TNVEntry.Value")
	case "Count":
		return d.uintInto(&e.Count, 3, "TNVEntry.Count")
	}
	if name := foldField(key, entryFields); name != "" {
		return d.entryField(e, []byte(name))
	}
	return d.skip(3)
}

// foldField returns the name in names that key equals under Unicode
// case folding, which is how encoding/json matches a key no field name
// matches exactly; "" if there is none.
func foldField(key []byte, names []string) string {
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// merged decodes the "merged" list the way top decodes a site's table,
// but into a copy that replaces the record's list only once the array
// is complete: the replaced loader decoded a top-level member only after
// reading all of it, so a record truncated inside "merged" keeps the
// earlier value.
func (d *recordDecoder) merged() error {
	switch d.ws() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		d.rec.Merged = nil
		return nil
	case '[':
	default:
		return d.mismatch(0, "merged")
	}
	buf := slices.Clone(d.rec.Merged[:cap(d.rec.Merged)])
	n := 0
	err := d.array(1, func() error {
		if n == len(buf) {
			buf = append(buf, "")
		}
		n++
		return d.stringInto(&buf[n-1], 1, "merged")
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		d.rec.Merged = []string{}
	default:
		d.rec.Merged = buf[:n]
	}
	return nil
}

// object decodes the members of the object at d.pos, which makes depth
// arrays and objects open, calling member with each key once its colon
// is consumed; member decodes the value.
func (d *recordDecoder) object(depth int, member func(key []byte) error) error {
	if depth > maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	if d.ws() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.ws() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.ws() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array decodes the array at d.pos, which makes depth arrays and
// objects open, calling elem to decode each element.
func (d *recordDecoder) array(depth int, elem func() error) error {
	if depth > maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	if d.ws() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip consumes the value at d.pos, of any shape, inside depth open
// arrays and objects.
func (d *recordDecoder) skip(depth int) error {
	switch c := d.ws(); {
	case c == '{':
		return d.object(depth+1, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth+1, func() error { return d.skip(depth + 1) })
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// mismatch consumes a value of the wrong JSON type for field and records
// the type error.
func (d *recordDecoder) mismatch(depth int, field string) error {
	start := d.pos
	if err := d.skip(depth); err != nil {
		return err
	}
	d.wrongType(start, field)
	return nil
}

// wrongType records that the value from start to d.pos does not fit
// field, unless an earlier type error is already recorded.
func (d *recordDecoder) wrongType(start int, field string) {
	if d.typeErr != nil {
		return
	}
	var what string
	switch c := d.data[start]; c {
	case '{':
		what = "object"
	case '[':
		what = "array"
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	default:
		what = "number " + string(d.data[start:d.pos])
	}
	d.typeErr = fmt.Errorf("json: cannot unmarshal %s into Go struct field %s", what, field)
}

// intInto decodes the value at d.pos into *dst the way encoding/json
// decodes into a signed integer: null leaves *dst unchanged, and a
// fraction, an exponent, a value out of T's range or a non-number is a
// type error.
func intInto[T int | int64](d *recordDecoder, dst *T, depth int, field string) error {
	switch c := d.ws(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		start := d.pos
		lit, err := d.number()
		if err != nil {
			return err
		}
		if v, ok := parseInt(lit); ok && int64(T(v)) == v {
			*dst = T(v)
		} else {
			d.wrongType(start, field)
		}
		return nil
	}
	return d.mismatch(depth, field)
}

// uintInto is intInto for a uint64 field.
func (d *recordDecoder) uintInto(dst *uint64, depth int, field string) error {
	switch c := d.ws(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		start := d.pos
		lit, err := d.number()
		if err != nil {
			return err
		}
		if v, ok := parseUint(lit); ok {
			*dst = v
		} else {
			d.wrongType(start, field)
		}
		return nil
	}
	return d.mismatch(depth, field)
}

// stringInto is intInto for a string field.
func (d *recordDecoder) stringInto(dst *string, depth int, field string) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '"':
		lit, plain, err := d.str()
		if err != nil {
			return err
		}
		if plain {
			*dst = string(lit[1 : len(lit)-1])
			return nil
		}
		v, err := unquote(lit)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}
	return d.mismatch(depth, field)
}

// boolInto is intInto for a bool field.
func (d *recordDecoder) boolInto(dst *bool, depth int, field string) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case 't', 'f':
		word := "true"
		if d.data[d.pos] == 'f' {
			word = "false"
		}
		if err := d.literal(word); err != nil {
			return err
		}
		*dst = word == "true"
		return nil
	}
	return d.mismatch(depth, field)
}

// key scans the object key at d.pos and returns its decoded bytes.
func (d *recordDecoder) key() ([]byte, error) {
	lit, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	if plain {
		return lit[1 : len(lit)-1 : len(lit)-1], nil
	}
	s, err := unquote(lit)
	return []byte(s), err
}

// unquote decodes a string literal holding an escape or a non-ASCII
// byte with encoding/json, so escapes, surrogates and invalid UTF-8 come
// out exactly as encoding/json decodes them. str has checked the
// literal's syntax, so this fails only on a bug in str.
func unquote(lit []byte) (string, error) {
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", fmt.Errorf("core: decoding string literal: %w", err)
	}
	return s, nil
}

// strStop marks the bytes that end the fast scan of a string: the
// closing quote, a backslash, control characters and non-ASCII bytes.
var strStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < ' ' || c >= 0x80
	}
	return t
}()

// str scans the string literal at d.pos and returns it, quotes
// included. plain reports that it holds no escape and no byte ≥ 0x80,
// so the bytes between its quotes are its value.
func (d *recordDecoder) str() (lit []byte, plain bool, err error) {
	data, start := d.data, d.pos
	plain = true
	i := start + 1
	for i < len(data) {
		c := data[i]
		if !strStop[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.pos = i + 1
			return data[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++
			if i == len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for n := 0; n < 4 && i < len(data); n, i = n+1, i+1 {
					if !isHex(data[i]) {
						d.pos = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.pos = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("in string literal")
		default: // c >= 0x80
			plain = false
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.syntax("in string literal")
}

// number scans the number literal at d.pos, which starts with '-' or a
// digit, by JSON's grammar and returns it.
func (d *recordDecoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		d.pos = i
		return nil, d.syntax("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i == len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntax("in exponent of numeric literal")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.pos = i
	return data[start:i], nil
}

// literal consumes word (true, false or null) at d.pos.
func (d *recordDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == len(d.data) || d.data[d.pos] != word[i] {
			return d.syntax("in literal " + word)
		}
		d.pos++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// parseUint converts a JSON number literal as strconv.ParseUint(lit,
// 10, 64) does: ok is false for a sign, a fraction, an exponent or a
// value above MaxUint64.
func parseUint(lit []byte) (n uint64, ok bool) {
	if len(lit) == 0 {
		return 0, false
	}
	for _, c := range lit {
		if !isDigit(c) {
			return 0, false
		}
		v := uint64(c - '0')
		if n > (1<<64-1-v)/10 {
			return 0, false
		}
		n = n*10 + v
	}
	return n, true
}

// parseInt converts a JSON number literal as strconv.ParseInt(lit, 10,
// 64) does.
func parseInt(lit []byte) (int64, bool) {
	neg := len(lit) > 0 && lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := parseUint(lit)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// validateSite enforces the per-site invariants. Under RepairNone any
// violation returns an error; under RepairDrop irreparable sites are
// dropped (keep=false) and repairable counters are clamped. It builds
// no map per site: duplicate PCs are looked up among the kept sites
// (see seenPC) and duplicate TNV values are found by sorting (see
// duplicates).
func (d *recordDecoder) validateSite(s *SiteRecord) (keep, clamped bool, err error) {
	strict := d.policy == RepairNone
	rep := d.rep
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
	if d.seenPC(s.PC) {
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
	dups := d.duplicates(s.Top)
	entries := s.Top[:0]
	for i, e := range s.Top {
		switch {
		case e.Count == 0:
			if strict {
				return false, false, fmt.Errorf("site pc %d: TNV entry %d has zero count", s.PC, e.Value)
			}
			rep.addProblem("site pc %d: dropped zero-count TNV entry %d", s.PC, e.Value)
			clamped = true
			continue
		case len(dups) > 0 && int(dups[0]) == i:
			dups = dups[1:]
			if strict {
				return false, false, fmt.Errorf("site pc %d: duplicate TNV value %d", s.PC, e.Value)
			}
			rep.addProblem("site pc %d: dropped duplicate TNV value %d", s.PC, e.Value)
			clamped = true
			continue
		}
		entries = append(entries, e)
	}
	s.Top = entries
	slices.SortFunc(s.Top, func(a, b TNVEntry) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Value, b.Value))
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

// seenPC reports whether a kept site has pc. Records list their sites
// in PC order, so the set of kept PCs is built only for one that does
// not.
func (d *recordDecoder) seenPC(pc int) bool {
	if pc > d.maxPC {
		return false
	}
	if d.seen == nil {
		d.seen = make(map[int]bool, len(d.rec.Sites))
		for i := range d.rec.Sites {
			d.seen[d.rec.Sites[i].PC] = true
		}
	}
	return d.seen[pc]
}

// duplicates returns, in ascending order, the indices of the entries of
// top that repeat the value of an earlier entry with a non-zero count
// (zero-count entries are dropped as such, not as duplicates). Sorting
// the indices of the non-zero entries by (value, index) puts each
// value's first entry ahead of its repeats, so the search takes
// O(k log k) and no memory beyond the reused order buffer.
func (d *recordDecoder) duplicates(top []TNVEntry) []int32 {
	idx := d.order[:0]
	for i := range top {
		if top[i].Count != 0 {
			idx = append(idx, int32(i))
		}
	}
	d.order = idx
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(top[a].Value, top[b].Value), cmp.Compare(a, b))
	})
	// dups overwrites idx only behind the element being read.
	dups := idx[:0]
	var prev int64
	for j, i := range idx {
		if v := top[i].Value; j > 0 && v == prev {
			dups = append(dups, i)
		} else {
			prev = v
		}
	}
	slices.Sort(dups)
	return dups
}
