package core

import (
	"encoding/json"
	"io"
	"math/bits"
	"strconv"
)

// WriteJSON serializes the record: exactly the bytes encoding/json's
// Encoder with SetIndent("", " ") writes for it, trailing newline
// included (see JSON).
func (r *ProfileRecord) WriteJSON(w io.Writer) error {
	_, err := w.Write(r.JSON())
	return err
}

// JSON returns the bytes WriteJSON writes, in one slice whose capacity
// is their length. The record is laid out without reflection: keys and
// omitempty fields as the struct tags spell them, null for a nil slice
// and [] for an empty one. A string holding a byte encoding/json would
// escape or replace (see jsonEscapes) is written by json.Marshal on its
// own, so escapes, invalid UTF-8, U+2028 and U+2029 come out as
// encoding/json writes them.
func (r *ProfileRecord) JSON() []byte {
	w := recordWriter{sizing: true}
	w.record(r)
	w.b, w.sizing = make([]byte, 0, w.n), false
	w.record(r)
	return w.b
}

// recordWriter lays out a record. It walks the record twice: sizing,
// it only counts the bytes (n); then it appends them to b, which JSON
// allocates at exactly that length. The layout is written once, in
// record and site.
type recordWriter struct {
	sizing bool
	n      int
	b      []byte
}

func (w *recordWriter) record(r *ProfileRecord) {
	w.lit("{\n \"program\": ")
	w.str(r.Program)
	w.lit(",\n \"input\": ")
	w.str(r.Input)
	w.lit(",\n \"k\": ")
	w.signed(int64(r.K))
	if r.Outcome != "" {
		w.lit(",\n \"outcome\": ")
		w.str(r.Outcome)
	}
	if r.Salvaged {
		w.lit(",\n \"salvaged\": true")
	}
	if r.Attempts != 0 {
		w.lit(",\n \"attempts\": ")
		w.signed(int64(r.Attempts))
	}
	if r.Skipped != 0 {
		w.lit(",\n \"skipped\": ")
		w.unsigned(r.Skipped)
	}
	if len(r.Merged) > 0 {
		sep := ",\n \"merged\": [\n  "
		for _, m := range r.Merged {
			w.lit(sep)
			w.str(m)
			sep = ",\n  "
		}
		w.lit("\n ]")
	}
	w.lit(",\n \"sites\": ")
	switch {
	case r.Sites == nil:
		w.lit("null")
	case len(r.Sites) == 0:
		w.lit("[]")
	default:
		sep := "[\n  {\n   \"pc\": "
		for i := range r.Sites {
			w.lit(sep)
			w.site(&r.Sites[i])
			sep = ",\n  {\n   \"pc\": "
		}
		w.lit("\n ]")
	}
	w.lit("\n}\n")
}

// site lays out one site from its PC on; record writes the opening.
func (w *recordWriter) site(s *SiteRecord) {
	w.signed(int64(s.PC))
	w.lit(",\n   \"name\": ")
	w.str(s.Name)
	w.lit(",\n   \"exec\": ")
	w.unsigned(s.Exec)
	w.lit(",\n   \"lvpHits\": ")
	w.unsigned(s.LVPHits)
	w.lit(",\n   \"zeros\": ")
	w.unsigned(s.Zeros)
	if s.Dropped != 0 {
		w.lit(",\n   \"dropped\": ")
		w.unsigned(s.Dropped)
	}
	w.lit(",\n   \"top\": ")
	switch {
	case s.Top == nil:
		w.lit("null")
	case len(s.Top) == 0:
		w.lit("[]")
	default:
		sep := "[\n    {\n     \"Value\": "
		for _, e := range s.Top {
			w.lit(sep)
			w.signed(e.Value)
			w.lit(",\n     \"Count\": ")
			w.unsigned(e.Count)
			sep = "\n    },\n    {\n     \"Value\": "
		}
		w.lit("\n    }\n   ]")
	}
	w.lit("\n  }")
}

func (w *recordWriter) lit(s string) {
	if w.sizing {
		w.n += len(s)
		return
	}
	w.b = append(w.b, s...)
}

func (w *recordWriter) signed(v int64) {
	if w.sizing {
		if v < 0 {
			w.n++
		}
		// max(v, -v) is |v|, except for math.MinInt64, which is its
		// own negation and converts to its magnitude all the same.
		w.n += digits(uint64(max(v, -v)))
		return
	}
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *recordWriter) unsigned(v uint64) {
	if w.sizing {
		w.n += digits(v)
		return
	}
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *recordWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if jsonEscapes[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			if w.sizing {
				w.n += len(q)
			} else {
				w.b = append(w.b, q...)
			}
			return
		}
	}
	if w.sizing {
		w.n += len(s) + 2
		return
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// jsonEscapes marks the bytes that keep encoding/json from writing a
// string as its bytes between quotes: the quote, the backslash and
// control characters, which it escapes; '<', '>' and '&', which its
// HTML-safe default escapes; and every byte ≥ 0x80, since it replaces
// invalid UTF-8 and escapes U+2028 and U+2029.
var jsonEscapes = func() (t [256]bool) {
	for c := range t {
		t[c] = strStop[c] || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// pow10 holds 10^0 … 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// digits is the length of v in decimal. Its bit length gives the
// power of ten at or below v to within one (1233/4096 ≈ log10 2); one
// comparison settles which.
func digits(v uint64) int {
	d := bits.Len64(v) * 1233 >> 12
	if v >= pow10[d] {
		d++
	}
	return max(d, 1)
}
