// Package wire reads the little-endian byte streams device snapshots are
// written in. Each model layer appends its own fields with
// encoding/binary's LittleEndian appenders and reads them back through one
// Reader, front to back, so a restore is a single pass over the bytes.
//
// The Reader's error is sticky: the first short read or failed check
// records the byte offset and every later read returns zero. A decoder
// checks Err before it sizes or indexes anything with a value it read, so
// corrupt input costs one line of diagnosis, never a panic or an
// allocation sized by a claim.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Reader consumes a byte slice front to back.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Failf records a failure at the current offset unless one is already
// recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Done fails unless every byte has been read, and returns Err.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// next returns the next n bytes, or nil (recording a failure) when fewer
// remain.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.Failf("truncated: %d bytes needed, %d left", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Count reads a uint32 item count and fails when it exceeds limit or when
// the bytes left cannot hold that many items of at least minBytes each, so
// a caller may size an allocation by the count it returns.
func (r *Reader) Count(what string, limit, minBytes int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64(limit) {
		r.Failf("%s count %d exceeds %d", what, n, limit)
		return 0
	}
	if uint64(n)*uint64(minBytes) > uint64(len(r.buf)-r.off) {
		r.Failf("%s count %d exceeds the %d bytes left", what, n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// JSON reads a uint32 length and that many bytes of JSON into v, as
// AppendJSON wrote them.
func (r *Reader) JSON(what string, v any) {
	b := r.next(r.Count(what, math.MaxInt32, 1))
	if r.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		r.Failf("%s: %v", what, err)
	}
}

// AppendJSON appends the length of v's JSON encoding as a uint32, then
// the encoding. encoding/json writes struct fields in declaration order
// and sorts map keys, so equal values encode to equal bytes.
func AppendJSON(buf []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(binary.LittleEndian.AppendUint32(buf, uint32(len(b))), b...), nil
}

// AppendI64 appends each value as a little-endian int64.
func AppendI64(buf []byte, vs ...int64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}
