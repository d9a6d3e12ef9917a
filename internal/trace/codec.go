package trace

import "io"

// Each trace format has exactly one parser, its stream decoder in
// streamcodec.go, and one encoder. The slice functions here are adapters:
// the readers drain a decoder, the writers feed an encoder from FromSlice.
//
// Text format: one request per line,
//
//	arrival_ns lba_sectors size_bytes op service_start_ns finish_ns
//
// with a "# name: <trace name>" header comment. This mirrors the blktrace-
// style logs BIOtracer flushes to its log file.
//
// Binary format: a compact fixed-width little-endian record stream with a
// small header. This is the format the 32 KB BIOtracer record buffer holds
// in memory before each flush (§II-B): 33 bytes per record, so the buffer
// fits ~300 records as the paper states (actually 992 at 33 B; the paper's
// record also carries process metadata we do not model — see
// internal/biotracer for the faithful record size accounting).

var binMagic = [4]byte{'B', 'I', 'O', '1'}

// recordSize is the on-disk size of one binary record.
const recordSize = 8 + 8 + 4 + 1 + 8 + 8

// maxReasonableRecords caps header-declared record counts: a corrupt or
// hostile header must not drive allocation or loop bounds.
const maxReasonableRecords = 1 << 28

// WriteText serializes the trace in the text format.
func WriteText(w io.Writer, t *Trace) error {
	return WriteTextStream(w, FromSlice(t))
}

// ReadText parses the text format produced by WriteText. The name comes
// from the last "# name:" comment before the first record.
func ReadText(r io.Reader) (*Trace, error) {
	return readAll(NewTextDecoder(r))
}

// WriteBinary serializes the trace in the binary format. The header always
// carries the real record count, whether or not w can seek.
func WriteBinary(w io.Writer, t *Trace) error {
	enc, err := newBinaryEncoder(w, t.Name, uint64(len(t.Reqs)), false)
	if err != nil {
		return err
	}
	return encodeAll(enc, FromSlice(t))
}

// ReadBinary parses the binary format produced by WriteBinary. Errors name
// the failing record index and its byte offset in the stream, so a
// truncated or corrupted capture file is diagnosable with dd/xxd rather
// than guesswork.
func ReadBinary(r io.Reader) (*Trace, error) {
	d, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, err
	}
	return readAll(d)
}

// StreamText parses the text format incrementally, invoking fn for each
// request without materializing the whole trace — multi-hour collections
// can be analyzed in constant memory. The callback may return an error to
// stop early; that error is returned verbatim. name is the header's.
func StreamText(r io.Reader, fn func(Request) error) (name string, n int, err error) {
	d := NewTextDecoder(r)
	for {
		req, ok, err := d.Next()
		if err != nil || !ok {
			return d.Name(), n, err
		}
		if err := fn(req); err != nil {
			return d.Name(), n, err
		}
		n++
	}
}
