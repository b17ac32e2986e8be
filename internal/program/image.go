package program

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"valueprof/internal/isa"
)

// Binary program-image format ("VPX1"): a fully linked executable —
// code, data, entry point, procedure table and symbols — so assembled
// or compiled programs can be saved by vasm/vcc and executed by vrun
// without re-assembly. All integers are unsigned/signed varints; the
// layout is:
//
//	magic "VPX1"
//	entry, dataAddr
//	code:   count, then each instruction's encoded word
//	data:   length, raw bytes
//	procs:  count, then (name, start, end)
//	labels: count, then (name, pc)
//	syms:   count, then (name, addr)
var imageMagic = [4]byte{'V', 'P', 'X', '1'}

// imageMaxStrings bounds section counts to reject corrupt images
// before allocating.
const imageMaxStrings = 1 << 24

type imageWriter struct {
	w   *bufio.Writer
	err error
}

func (iw *imageWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := iw.w.Write(buf[:n]); err != nil && iw.err == nil {
		iw.err = err
	}
}

func (iw *imageWriter) str(s string) {
	iw.uvarint(uint64(len(s)))
	if _, err := iw.w.WriteString(s); err != nil && iw.err == nil {
		iw.err = err
	}
}

// Save writes the program image to w.
func (p *Program) Save(w io.Writer) error {
	iw := &imageWriter{w: bufio.NewWriter(w)}
	if _, err := iw.w.Write(imageMagic[:]); err != nil {
		return err
	}
	iw.uvarint(uint64(p.Entry))
	iw.uvarint(p.DataAddr)

	iw.uvarint(uint64(len(p.Code)))
	for _, in := range p.Code {
		iw.uvarint(uint64(in.Encode()))
	}
	iw.uvarint(uint64(len(p.Data)))
	if _, err := iw.w.Write(p.Data); err != nil && iw.err == nil {
		iw.err = err
	}

	iw.uvarint(uint64(len(p.Procs)))
	for _, pr := range p.Procs {
		iw.str(pr.Name)
		iw.uvarint(uint64(pr.Start))
		iw.uvarint(uint64(pr.End))
	}

	// Maps are serialized in sorted order for deterministic images.
	labels := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		labels = append(labels, name)
	}
	sort.Strings(labels)
	iw.uvarint(uint64(len(labels)))
	for _, name := range labels {
		iw.str(name)
		iw.uvarint(uint64(p.Labels[name]))
	}

	syms := make([]string, 0, len(p.DataSyms))
	for name := range p.DataSyms {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	iw.uvarint(uint64(len(syms)))
	for _, name := range syms {
		iw.str(name)
		iw.uvarint(p.DataSyms[name])
	}

	if iw.err != nil {
		return iw.err
	}
	return iw.w.Flush()
}

type imageReader struct {
	r *bufio.Reader
}

func (ir *imageReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(ir.r)
}

func (ir *imageReader) str() (string, error) {
	n, err := ir.uvarint()
	if err != nil {
		return "", err
	}
	if n > imageMaxStrings {
		return "", fmt.Errorf("program: string length %d too large", n)
	}
	buf, err := ir.readN(n)
	return string(buf), err
}

// readN reads n bytes. Memory grows with the bytes actually read, so a
// short image claiming a huge section costs no more than its length.
func (ir *imageReader) readN(n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, ir.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Load reads a program image written by Save and validates it.
func Load(r io.Reader) (*Program, error) {
	ir := &imageReader{r: bufio.NewReader(r)}
	var hdr [4]byte
	if _, err := io.ReadFull(ir.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("program: reading image header: %w", err)
	}
	if hdr != imageMagic {
		return nil, errors.New("program: not a VPX1 program image")
	}
	p := &Program{
		Labels:   make(map[string]int),
		DataSyms: make(map[string]uint64),
	}
	fail := func(section string, err error) (*Program, error) {
		return nil, fmt.Errorf("program: image %s section: %w", section, err)
	}

	entry, err := ir.uvarint()
	if err != nil {
		return fail("entry", err)
	}
	p.Entry = int(entry)
	if p.DataAddr, err = ir.uvarint(); err != nil {
		return fail("dataAddr", err)
	}

	nCode, err := ir.uvarint()
	if err != nil || nCode > imageMaxStrings {
		return fail("code", orSize(err, nCode))
	}
	// Like readN, the code grows with the words actually read.
	p.Code = make([]isa.Inst, 0, min(nCode, 1<<12))
	for range nCode {
		w, err := ir.uvarint()
		if err != nil {
			return fail("code", err)
		}
		in, err := isa.Decode(isa.Word(w))
		if err != nil {
			return fail("code", err)
		}
		p.Code = append(p.Code, in)
	}

	nData, err := ir.uvarint()
	if err != nil || nData > 1<<30 {
		return fail("data", orSize(err, nData))
	}
	if p.Data, err = ir.readN(nData); err != nil {
		return fail("data", err)
	}

	nProcs, err := ir.uvarint()
	if err != nil || nProcs > imageMaxStrings {
		return fail("procs", orSize(err, nProcs))
	}
	for i := uint64(0); i < nProcs; i++ {
		name, err := ir.str()
		if err != nil {
			return fail("procs", err)
		}
		start, err := ir.uvarint()
		if err != nil {
			return fail("procs", err)
		}
		end, err := ir.uvarint()
		if err != nil {
			return fail("procs", err)
		}
		p.Procs = append(p.Procs, Proc{Name: name, Start: int(start), End: int(end)})
	}

	nLabels, err := ir.uvarint()
	if err != nil || nLabels > imageMaxStrings {
		return fail("labels", orSize(err, nLabels))
	}
	for i := uint64(0); i < nLabels; i++ {
		name, err := ir.str()
		if err != nil {
			return fail("labels", err)
		}
		pc, err := ir.uvarint()
		if err != nil {
			return fail("labels", err)
		}
		p.Labels[name] = int(pc)
	}

	nSyms, err := ir.uvarint()
	if err != nil || nSyms > imageMaxStrings {
		return fail("syms", orSize(err, nSyms))
	}
	for i := uint64(0); i < nSyms; i++ {
		name, err := ir.str()
		if err != nil {
			return fail("syms", err)
		}
		addr, err := ir.uvarint()
		if err != nil {
			return fail("syms", err)
		}
		p.DataSyms[name] = addr
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("program: loaded image invalid: %w", err)
	}
	return p, nil
}

func orSize(err error, n uint64) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("section size %d too large", n)
}
