package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Streaming codec layer: decoders expose trace files as Streams and
// encoders consume request-at-a-time, so multi-GB captures pass through
// tools in constant memory. Each decoder is its format's only parser (the
// slice readers in codec.go drain it); Reset is supported whenever the
// underlying reader can seek (files can, pipes cannot).

// StreamingCount is the record-count sentinel a streaming binary writer
// emits when it cannot seek back to patch the real count: readers treat it
// as "records run to end of stream".
const StreamingCount = ^uint64(0)

// TextDecoder reads the text format as a Stream.
type TextDecoder struct {
	src     io.Reader
	sc      *bufio.Scanner
	name    string
	line    int
	pending string // first record line, consumed while scanning the header
	hasPend bool
	err     error
}

// NewTextDecoder starts decoding the text format from r. The header (name
// comment) is consumed immediately so Name is available before the first
// Next. Reset works when r is an io.Seeker.
func NewTextDecoder(r io.Reader) *TextDecoder {
	d := &TextDecoder{src: r}
	d.start()
	return d
}

// start (re)initializes scanning and reads up to the first record line.
func (d *TextDecoder) start() {
	d.sc = bufio.NewScanner(d.src)
	d.sc.Buffer(make([]byte, 1<<16), 1<<20)
	d.line = 0
	d.err = nil
	d.pending, d.hasPend = d.scanRecord(true)
}

// scanRecord returns the next record line, skipping blanks and comments.
// In the header (before the first record) "# name:" comments set the name.
func (d *TextDecoder) scanRecord(header bool) (string, bool) {
	for d.sc.Scan() {
		d.line++
		s := strings.TrimSpace(d.sc.Text())
		if s == "" {
			continue
		}
		if !strings.HasPrefix(s, "#") {
			return s, true
		}
		if rest, ok := strings.CutPrefix(s, "# name:"); ok && header {
			d.name = strings.TrimSpace(rest)
		}
	}
	d.err = d.sc.Err()
	return "", false
}

// Name returns the trace name from the header comment.
func (d *TextDecoder) Name() string { return d.name }

// Next parses one record line.
func (d *TextDecoder) Next() (Request, bool, error) {
	if d.err != nil {
		return Request{}, false, d.err
	}
	s, ok := d.pending, d.hasPend
	d.hasPend = false
	if !ok {
		if s, ok = d.scanRecord(false); !ok {
			return Request{}, false, d.err
		}
	}
	req, err := parseTextLine(s)
	if err != nil {
		d.err = fmt.Errorf("trace: line %d: %w", d.line, err)
		return Request{}, false, d.err
	}
	return req, true, nil
}

// Reset rewinds to the first record; the reader must seek.
func (d *TextDecoder) Reset() error {
	s, ok := d.src.(io.Seeker)
	if !ok {
		return fmt.Errorf("%w: text decoder over a non-seeking reader", ErrNoReset)
	}
	if _, err := s.Seek(0, io.SeekStart); err != nil {
		return err
	}
	d.start()
	return d.err
}

// parseTextLine parses one "arrival lba size op service finish" record.
func parseTextLine(s string) (Request, error) {
	fields := strings.Fields(s)
	if len(fields) != 6 {
		return Request{}, fmt.Errorf("want 6 fields, got %d", len(fields))
	}
	var req Request
	var err error
	if req.Arrival, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return Request{}, fmt.Errorf("arrival: %w", err)
	}
	if req.LBA, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return Request{}, fmt.Errorf("lba: %w", err)
	}
	size, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Request{}, fmt.Errorf("size: %w", err)
	}
	req.Size = uint32(size)
	switch fields[3] {
	case "R":
		req.Op = Read
	case "W":
		req.Op = Write
	default:
		return Request{}, fmt.Errorf("bad op %q", fields[3])
	}
	if req.ServiceStart, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
		return Request{}, fmt.Errorf("service start: %w", err)
	}
	if req.Finish, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
		return Request{}, fmt.Errorf("finish: %w", err)
	}
	return req, nil
}

// BinaryDecoder reads the binary "BIO1" format as a Stream.
type BinaryDecoder struct {
	src     io.Reader
	br      *bufio.Reader
	name    string
	count   uint64 // StreamingCount means read to EOF
	i       uint64
	off     int64 // bytes consumed, for error reporting
	dataOff int64 // file offset of the first record, for Reset
	err     error
}

// NewBinaryDecoder reads the binary header from r and returns a decoder
// positioned at the first record. Reset works when r is an io.Seeker.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	d := &BinaryDecoder{src: r, br: bufio.NewReader(r)}
	var err error
	if d.name, d.off, err = readHeader(d.br, binMagic); err != nil {
		return nil, err
	}
	var count [8]byte
	if _, err := io.ReadFull(d.br, count[:]); err != nil {
		return nil, fmt.Errorf("trace: reading record count at offset %d: %w", d.off, err)
	}
	d.off += int64(len(count))
	d.count = binary.LittleEndian.Uint64(count[:])
	if d.count != StreamingCount && d.count > maxReasonableRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", d.count)
	}
	d.dataOff = d.off
	return d, nil
}

// readHeader reads the magic and length-prefixed name that open the BIO1
// and BIOZ formats, returning the name and the bytes consumed. Errors name
// the offset they occurred at.
func readHeader(br *bufio.Reader, want [4]byte) (name string, off int64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", 0, fmt.Errorf("trace: reading magic at offset 0: %w", err)
	}
	if magic != want {
		return "", 0, fmt.Errorf("trace: bad magic %q", magic)
	}
	off = int64(len(magic))
	nameLen, err := br.ReadByte()
	if err != nil {
		return "", 0, fmt.Errorf("trace: reading name length at offset %d: %w", off, err)
	}
	off++
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nb); err != nil {
		return "", 0, fmt.Errorf("trace: reading %d-byte name at offset %d: %w", nameLen, off, err)
	}
	return string(nb), off + int64(nameLen), nil
}

// Name returns the trace name from the header.
func (d *BinaryDecoder) Name() string { return d.name }

// Len returns the header's record count and whether it is known (a
// streaming writer that could not seek leaves it unknown).
func (d *BinaryDecoder) Len() (uint64, bool) {
	return d.count, d.count != StreamingCount
}

// Next reads one fixed-width record.
func (d *BinaryDecoder) Next() (Request, bool, error) {
	if d.err != nil {
		return Request{}, false, d.err
	}
	if d.count != StreamingCount && d.i >= d.count {
		return Request{}, false, nil
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(d.br, rec[:]); err != nil {
		if d.count == StreamingCount && err == io.EOF {
			return Request{}, false, nil // clean end at a record boundary
		}
		if d.count == StreamingCount {
			d.err = fmt.Errorf("trace: record %d at offset %d: %w", d.i, d.off, err)
		} else {
			d.err = fmt.Errorf("trace: record %d of %d at offset %d: %w", d.i, d.count, d.off, err)
		}
		return Request{}, false, d.err
	}
	req := decodeBinaryRecord(rec[:])
	if req.Op != Read && req.Op != Write {
		d.err = fmt.Errorf("trace: record %d at offset %d: bad op %d", d.i, d.off, req.Op)
		return Request{}, false, d.err
	}
	d.off += recordSize
	d.i++
	return req, true, nil
}

// Reset rewinds to the first record; the reader must seek.
func (d *BinaryDecoder) Reset() error {
	s, ok := d.src.(io.Seeker)
	if !ok {
		return fmt.Errorf("%w: binary decoder over a non-seeking reader", ErrNoReset)
	}
	if _, err := s.Seek(d.dataOff, io.SeekStart); err != nil {
		return err
	}
	d.br.Reset(d.src)
	d.off = d.dataOff
	d.i = 0
	d.err = nil
	return nil
}

// decodeBinaryRecord unpacks one fixed-width record (op unvalidated).
func decodeBinaryRecord(rec []byte) Request {
	return Request{
		Arrival:      int64(binary.LittleEndian.Uint64(rec[0:])),
		LBA:          binary.LittleEndian.Uint64(rec[8:]),
		Size:         binary.LittleEndian.Uint32(rec[16:]),
		Op:           Op(rec[20]),
		ServiceStart: int64(binary.LittleEndian.Uint64(rec[21:])),
		Finish:       int64(binary.LittleEndian.Uint64(rec[29:])),
	}
}

// CompressedDecoder reads the delta+varint "BIOZ" format as a Stream.
type CompressedDecoder struct {
	src   io.Reader
	br    *bufio.Reader
	name  string
	count uint64 // StreamingCount means read to EOF
	i     uint64
	err   error

	dataOff int64 // file offset of the first record, for Reset
	// Delta-decoding state, rewound by Reset.
	prevArrival int64
	prevEnd     uint64
}

// NewCompressedDecoder reads the compressed header from r and returns a
// decoder positioned at the first record. Reset works when r is an
// io.Seeker.
func NewCompressedDecoder(r io.Reader) (*CompressedDecoder, error) {
	d := &CompressedDecoder{src: r, br: bufio.NewReader(r)}
	var err error
	if d.name, d.dataOff, err = readHeader(d.br, compressedMagic); err != nil {
		return nil, err
	}
	// Track the varint's width by counting bytes as they are consumed
	// (varints have no fixed width, and Reset needs the exact data offset).
	before := countBytes{br: d.br}
	if d.count, err = binary.ReadUvarint(&before); err != nil {
		return nil, fmt.Errorf("trace: reading record count at offset %d: %w", d.dataOff, err)
	}
	d.dataOff += before.n
	if d.count != StreamingCount && d.count > maxReasonableRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", d.count)
	}
	return d, nil
}

// countBytes wraps a ByteReader, counting bytes consumed.
type countBytes struct {
	br *bufio.Reader
	n  int64
}

func (c *countBytes) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// Name returns the trace name from the header.
func (d *CompressedDecoder) Name() string { return d.name }

// Next decodes one delta-encoded record.
func (d *CompressedDecoder) Next() (Request, bool, error) {
	if d.err != nil {
		return Request{}, false, d.err
	}
	if d.count != StreamingCount && d.i >= d.count {
		return Request{}, false, nil
	}
	fail := func(err error) (Request, bool, error) {
		d.err = fmt.Errorf("trace: record %d: %w", d.i, err)
		return Request{}, false, d.err
	}
	arrivalDelta, err := binary.ReadUvarint(d.br)
	if err != nil {
		if d.count == StreamingCount && err == io.EOF {
			return Request{}, false, nil // clean end at a record boundary
		}
		return fail(err)
	}
	lbaDelta, err := binary.ReadVarint(d.br)
	if err != nil {
		return fail(err)
	}
	pages, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fail(err)
	}
	if pages == 0 || pages > math.MaxUint32/PageSize {
		return fail(fmt.Errorf("bad page count %d", pages))
	}
	opByte, err := d.br.ReadByte()
	if err != nil {
		return fail(err)
	}
	if Op(opByte) != Read && Op(opByte) != Write {
		return fail(fmt.Errorf("bad op %d", opByte))
	}
	wait, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fail(err)
	}
	service, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fail(err)
	}
	lba := int64(d.prevEnd) + lbaDelta
	if lba < 0 {
		return fail(fmt.Errorf("negative address"))
	}
	// Timestamps are int64 nanoseconds; deltas that overflow them would
	// decode to a trace that is out of order or acausal.
	if arrivalDelta > math.MaxInt64-uint64(d.prevArrival) {
		return fail(fmt.Errorf("arrival overflows int64"))
	}
	arrival := d.prevArrival + int64(arrivalDelta)
	if wait > math.MaxInt64-uint64(arrival) || service > math.MaxInt64-uint64(arrival)-wait {
		return fail(fmt.Errorf("finish time overflows int64"))
	}
	req := Request{
		Arrival: arrival,
		LBA:     uint64(lba),
		Size:    uint32(pages) * PageSize,
		Op:      Op(opByte),
	}
	if wait != 0 || service != 0 {
		req.ServiceStart = req.Arrival + int64(wait)
		req.Finish = req.ServiceStart + int64(service)
	}
	d.prevArrival = req.Arrival
	d.prevEnd = req.EndLBA()
	d.i++
	return req, true, nil
}

// Reset rewinds to the first record; the reader must seek.
func (d *CompressedDecoder) Reset() error {
	s, ok := d.src.(io.Seeker)
	if !ok {
		return fmt.Errorf("%w: compressed decoder over a non-seeking reader", ErrNoReset)
	}
	if _, err := s.Seek(d.dataOff, io.SeekStart); err != nil {
		return err
	}
	d.br.Reset(d.src)
	d.i = 0
	d.err = nil
	d.prevArrival, d.prevEnd = 0, 0
	return nil
}

// NewDecoder sniffs the format (binary magic, compressed magic, else text)
// and returns the matching decoder. The reader must seek: sniffing rewinds,
// and all decoders over seekable readers support Reset.
func NewDecoder(r io.ReadSeeker) (Stream, error) {
	var magic [4]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == len(magic) {
		switch magic {
		case binMagic:
			return NewBinaryDecoder(r)
		case compressedMagic:
			return NewCompressedDecoder(r)
		}
	}
	return NewTextDecoder(r), nil
}

// TextEncoder writes the text format request-at-a-time. Its output is
// byte-identical to WriteText over the same requests.
type TextEncoder struct {
	bw *bufio.Writer
}

// NewTextEncoder writes the header and returns an encoder.
func NewTextEncoder(w io.Writer, name string) (*TextEncoder, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name: %s\n", name); err != nil {
		return nil, err
	}
	return &TextEncoder{bw: bw}, nil
}

// Write appends one record.
func (e *TextEncoder) Write(r Request) error {
	_, err := fmt.Fprintf(e.bw, "%d %d %d %s %d %d\n",
		r.Arrival, r.LBA, r.Size, r.Op, r.ServiceStart, r.Finish)
	return err
}

// Close flushes buffered records. The encoder must not be used afterwards.
func (e *TextEncoder) Close() error { return e.bw.Flush() }

// BinaryEncoder writes the binary format request-at-a-time. When the
// destination can seek, Close patches the real record count into the header
// and the file is byte-identical to WriteBinary; otherwise the header
// carries StreamingCount and readers run to EOF.
type BinaryEncoder struct {
	w        io.Writer
	bw       *bufio.Writer
	countOff int64
	patch    bool // Close seeks back and writes the real count
	n        uint64
}

// NewBinaryEncoder writes the header and returns an encoder.
func NewBinaryEncoder(w io.Writer, name string) (*BinaryEncoder, error) {
	if _, ok := w.(io.WriteSeeker); ok {
		return newBinaryEncoder(w, name, 0, true)
	}
	return newBinaryEncoder(w, name, StreamingCount, false)
}

// newBinaryEncoder writes a header declaring count records; with patch,
// Close overwrites it with the number actually written.
func newBinaryEncoder(w io.Writer, name string, count uint64, patch bool) (*BinaryEncoder, error) {
	e := &BinaryEncoder{w: w, bw: bufio.NewWriter(w), patch: patch}
	if _, err := e.bw.Write(binMagic[:]); err != nil {
		return nil, err
	}
	nb := []byte(name)
	if len(nb) > 255 {
		nb = nb[:255]
	}
	if err := e.bw.WriteByte(byte(len(nb))); err != nil {
		return nil, err
	}
	if _, err := e.bw.Write(nb); err != nil {
		return nil, err
	}
	e.countOff = int64(len(binMagic) + 1 + len(nb))
	var c [8]byte
	binary.LittleEndian.PutUint64(c[:], count)
	if _, err := e.bw.Write(c[:]); err != nil {
		return nil, err
	}
	return e, nil
}

// Write appends one record.
func (e *BinaryEncoder) Write(r Request) error {
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(r.Arrival))
	binary.LittleEndian.PutUint64(rec[8:], r.LBA)
	binary.LittleEndian.PutUint32(rec[16:], r.Size)
	rec[20] = byte(r.Op)
	binary.LittleEndian.PutUint64(rec[21:], uint64(r.ServiceStart))
	binary.LittleEndian.PutUint64(rec[29:], uint64(r.Finish))
	if _, err := e.bw.Write(rec[:]); err != nil {
		return err
	}
	e.n++
	return nil
}

// Close flushes and, when the header needs it, patches the record count.
func (e *BinaryEncoder) Close() error {
	if err := e.bw.Flush(); err != nil {
		return err
	}
	if !e.patch {
		return nil
	}
	ws := e.w.(io.WriteSeeker)
	if _, err := ws.Seek(e.countOff, io.SeekStart); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], e.n)
	if _, err := ws.Write(count[:]); err != nil {
		return err
	}
	_, err := ws.Seek(0, io.SeekEnd)
	return err
}

// WriteTextStream drains a stream into the text format.
func WriteTextStream(w io.Writer, s Stream) error {
	enc, err := NewTextEncoder(w, s.Name())
	if err != nil {
		return err
	}
	return encodeAll(enc, s)
}

// WriteBinaryStream drains a stream into the binary format.
func WriteBinaryStream(w io.Writer, s Stream) error {
	enc, err := NewBinaryEncoder(w, s.Name())
	if err != nil {
		return err
	}
	return encodeAll(enc, s)
}

// encodeAll drains s into enc and closes it.
func encodeAll(enc interface {
	Write(Request) error
	Close() error
}, s Stream) error {
	for {
		r, ok, err := s.Next()
		if err != nil {
			return err
		}
		if !ok {
			return enc.Close()
		}
		if err := enc.Write(r); err != nil {
			return err
		}
	}
}
