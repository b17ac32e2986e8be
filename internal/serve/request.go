package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// readRequest reads a POST /v1/jobs body, already limited to limit
// bytes, and decodes it. The body is read once, into a buffer sized
// from the request's Content-Length when the client sent one, so a
// large body is not copied as it grows. A body in the plain shape
// parseRequest accepts decodes in one pass over those bytes. Anything
// else goes to encoding/json's Decoder, which reads the same bytes
// followed by the read's error, as it would have read them from the
// request. So the request and the error are encoding/json's on every
// input.
func readRequest(body io.Reader, contentLength, limit int64) (*JobRequest, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(contentLength, 0), limit)+bytes.MinRead))
	_, readErr := buf.ReadFrom(body)
	if readErr == nil {
		if req, ok := parseRequest(buf.Bytes()); ok {
			return req, nil
		}
	}
	var rd io.Reader = buf
	if readErr != nil {
		rd = io.MultiReader(buf, errReader{readErr})
	}
	var req JobRequest
	if err := json.NewDecoder(rd).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseRequest decodes the plain shape of a JobRequest, which every
// client of the daemon writes, or reports false. The plain shape is:
//
//   - keys spelled exactly as the struct tags, each at most once per
//     object;
//   - strings of bytes 0x20-0x7E other than '"' and '\' (no escapes);
//   - integers in JSON's integer grammar, in range for their field
//     (no "-0", fraction or exponent);
//   - epsilon as any JSON number, parsed as encoding/json parses it;
//   - true and false;
//   - nothing but whitespace after the object.
//
// null, unknown or case-variant keys and every type mismatch are left
// to encoding/json, so on what it accepts parseRequest yields exactly
// the value encoding/json would, empty arrays included.
func parseRequest(b []byte) (*JobRequest, bool) {
	p := reqParser{b: b}
	req := new(JobRequest)
	var seen uint
	ok := p.object(func(key []byte) bool {
		switch string(key) {
		case "client":
			return once(&seen, 0) && p.str(&req.Client)
		case "program":
			return once(&seen, 1) && p.program(&req.Program)
		case "inputs":
			return once(&seen, 2) && p.inputs(&req.Inputs)
		case "config":
			return once(&seen, 3) && p.config(&req.Config)
		}
		return false
	})
	p.ws()
	return req, ok && p.i == len(b)
}

// once marks bit in seen, reporting false if it was already set: a
// repeated key.
func once(seen *uint, bit uint) bool {
	if *seen&(1<<bit) != 0 {
		return false
	}
	*seen |= 1 << bit
	return true
}

// reqParser scans a request body; every method reports false on input
// outside the plain shape.
type reqParser struct {
	b []byte
	i int
}

func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// tok skips whitespace and consumes c if it comes next.
func (p *reqParser) tok(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses {"key": value, ...}, calling member with each key to
// parse its value.
func (p *reqParser) object(member func(key []byte) bool) bool {
	if !p.tok('{') {
		return false
	}
	if p.tok('}') {
		return true
	}
	for {
		key, ok := p.raw()
		if !ok || !p.tok(':') || !member(key) {
			return false
		}
		if !p.tok(',') {
			return p.tok('}')
		}
	}
}

// array parses [elem, ...], calling elem once per element.
func (p *reqParser) array(elem func() bool) bool {
	if !p.tok('[') {
		return false
	}
	if p.tok(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.tok(',') {
			return p.tok(']')
		}
	}
}

// plainByte marks the bytes a plain string holds: 0x20-0x7E other than
// '"' and '\'. A table lookup scans a long image string about twice as
// fast as the comparisons it replaces.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// raw scans a string and returns its bytes without the quotes.
func (p *reqParser) raw() ([]byte, bool) {
	if !p.tok('"') {
		return nil, false
	}
	rest := p.b[p.i:]
	for n, c := range rest {
		if !plainByte[c] {
			if c != '"' {
				return nil, false
			}
			p.i += n + 1
			return rest[:n], true
		}
	}
	return nil, false
}

func (p *reqParser) str(dst *string) bool {
	raw, ok := p.raw()
	*dst = string(raw)
	return ok
}

// integer scans -?(0|[1-9][0-9]*) into a sign and a magnitude, refusing
// a number that goes on with a fraction or exponent, a magnitude past
// uint64, and "-0".
func (p *reqParser) integer() (neg bool, mag uint64, ok bool) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, false
		}
		mag = mag*10 + d
		p.i++
	}
	n := p.i - start
	if n == 0 || n > 1 && p.b[start] == '0' || neg && mag == 0 {
		return false, 0, false
	}
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case '.', 'e', 'E':
			return false, 0, false
		}
	}
	return neg, mag, true
}

func (p *reqParser) int64v(dst *int64) bool {
	neg, mag, ok := p.integer()
	switch {
	case !ok:
		return false
	case neg && mag <= 1<<63:
		*dst = int64(-mag) // -(1<<63) wraps to math.MinInt64
	case !neg && mag <= math.MaxInt64:
		*dst = int64(mag)
	default:
		return false
	}
	return true
}

func (p *reqParser) intv(dst *int) bool {
	var v int64
	if !p.int64v(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

func (p *reqParser) uint64v(dst *uint64) bool {
	neg, mag, ok := p.integer()
	if !ok || neg {
		return false
	}
	*dst = mag
	return true
}

// float64v scans a JSON number and parses it with strconv.ParseFloat,
// as encoding/json does, refusing one out of float64's range.
func (p *reqParser) float64v(dst *float64) bool {
	p.ws()
	start := p.i
	p.skip('-')
	if !p.skip('0') && !p.digits() {
		return false
	}
	if p.skip('.') && !p.digits() {
		return false
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if !p.digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	*dst = f
	return err == nil
}

// skip consumes c if it comes next, with no whitespace before it.
func (p *reqParser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes [0-9]+.
func (p *reqParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

func (p *reqParser) boolv(dst *bool) bool {
	p.ws()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*dst = true
		p.i += 4
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		*dst = false
		p.i += 5
	default:
		return false
	}
	return true
}

func (p *reqParser) program(wp *WireProgram) bool {
	var seen uint
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "asm":
			return once(&seen, 0) && p.str(&wp.Asm)
		case "image":
			return once(&seen, 1) && p.str(&wp.Image)
		}
		return false
	})
}

// inputs parses [[int, ...], ...]. As with encoding/json, [] is an
// empty slice, not nil, at either level.
func (p *reqParser) inputs(dst *[][]int64) bool {
	ins := [][]int64{}
	ok := p.array(func() bool {
		in := []int64{}
		ok := p.array(func() bool {
			var v int64
			ok := p.int64v(&v)
			in = append(in, v)
			return ok
		})
		ins = append(ins, in)
		return ok
	})
	*dst = ins
	return ok
}

func (p *reqParser) config(c *JobConfig) bool {
	var seen uint
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "filter":
			return once(&seen, 0) && p.str(&c.Filter)
		case "tnv":
			c.TNV = new(WireTNV)
			return once(&seen, 1) && p.tnv(c.TNV)
		case "convergent":
			c.Convergent = new(WireConvergent)
			return once(&seen, 2) && p.convergent(c.Convergent)
		case "stepLimit":
			return once(&seen, 3) && p.uint64v(&c.StepLimit)
		case "deadlineMs":
			return once(&seen, 4) && p.int64v(&c.DeadlineMs)
		case "attemptDeadlineMs":
			return once(&seen, 5) && p.int64v(&c.AttemptDeadlineMs)
		case "maxAttempts":
			return once(&seen, 6) && p.intv(&c.MaxAttempts)
		case "memSize":
			return once(&seen, 7) && p.intv(&c.MemSize)
		case "chargeHooks":
			return once(&seen, 8) && p.boolv(&c.ChargeHooks)
		case "salvagePartial":
			return once(&seen, 9) && p.boolv(&c.SalvagePartial)
		}
		return false
	})
}

func (p *reqParser) tnv(t *WireTNV) bool {
	var seen uint
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "size":
			return once(&seen, 0) && p.intv(&t.Size)
		case "steady":
			return once(&seen, 1) && p.intv(&t.Steady)
		case "clearInterval":
			return once(&seen, 2) && p.uint64v(&t.ClearInterval)
		}
		return false
	})
}

func (p *reqParser) convergent(c *WireConvergent) bool {
	var seen uint
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "burstLen":
			return once(&seen, 0) && p.uint64v(&c.BurstLen)
		case "initialSkip":
			return once(&seen, 1) && p.uint64v(&c.InitialSkip)
		case "maxSkip":
			return once(&seen, 2) && p.uint64v(&c.MaxSkip)
		case "epsilon":
			return once(&seen, 3) && p.float64v(&c.Epsilon)
		}
		return false
	})
}
