package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// FuzzReader runs a fuzzed sequence of reads over fuzzed bytes and checks
// them against a model of the reader's position:
//   - each read returns the bytes at the modelled offset until the first
//     failure, which records that offset, sticks, and makes every later
//     read return zero;
//   - Count never returns more than its limit or than the bytes after the
//     count field can hold at minBytes each;
//   - Len reports the bytes after the modelled offset;
//   - Done accepts exactly the fully consumed input.
//
// Each op byte selects a read: U8, U32, U64, I64, Count (the next op byte
// is its limit, the op's high bits its minBytes) or Failf.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{4, 9}, binary.LittleEndian.AppendUint32(nil, 2))
	f.Add([]byte{4 + 6*3, 200, 0}, append(binary.LittleEndian.AppendUint32(nil, 3), 1, 2, 3))
	f.Add([]byte{5, 0}, []byte{7})
	f.Add([]byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, ops, buf []byte) {
		r := NewReader(buf)
		off := 0         // where the reader should be
		var err error    // the failure it should hold
		failAt := -1     // the offset that failure names
		fail := func() { // a failure happens at off unless one stuck already
			if err == nil {
				err, failAt = r.Err(), off
				if err == nil {
					t.Fatalf("reader did not fail at byte %d", off)
				}
			}
		}
		// fixed checks a fixed-size read of size bytes that returned got.
		fixed := func(size int, got uint64) {
			at, want := off, uint64(0)
			if err == nil && off+size <= len(buf) {
				var b [8]byte
				copy(b[:], buf[off:off+size])
				want = binary.LittleEndian.Uint64(b[:])
				off += size
			} else {
				fail()
			}
			if got != want {
				t.Fatalf("%d-byte read at %d returned %#x, want %#x", size, at, got, want)
			}
		}
		for i := 0; i < len(ops); i++ {
			switch op := ops[i]; op % 6 {
			case 0:
				fixed(1, uint64(r.U8()))
			case 1:
				fixed(4, uint64(r.U32()))
			case 2:
				fixed(8, r.U64())
			case 3:
				fixed(8, uint64(r.I64()))
			case 4:
				limit, minBytes := 0, 1+int(op/6)%8
				if i+1 < len(ops) {
					i++
					limit = int(ops[i])
				}
				got := r.Count("item", limit, minBytes)
				var n uint64
				if err == nil && off+4 > len(buf) {
					fail()
				} else if err == nil {
					n = uint64(binary.LittleEndian.Uint32(buf[off:]))
					off += 4
					if n > uint64(limit) || n*uint64(minBytes) > uint64(len(buf)-off) {
						fail()
					}
				}
				if rest := len(buf) - off; got < 0 || got > limit || got*minBytes > rest {
					t.Fatalf("Count(limit %d, minBytes %d) = %d with %d bytes left", limit, minBytes, got, rest)
				}
				if err != nil {
					n = 0
				}
				if uint64(got) != n {
					t.Fatalf("Count = %d, want %d", got, n)
				}
			case 5:
				r.Failf("op %d", i)
				fail()
			}
			if r.Err() != err {
				t.Fatalf("op %d: Err() = %v, want %v", i, r.Err(), err)
			}
			if r.Len() != len(buf)-off {
				t.Fatalf("op %d: Len() = %d at byte %d of %d", i, r.Len(), off, len(buf))
			}
		}
		if err != nil && !strings.HasPrefix(err.Error(), fmt.Sprintf("byte %d: ", failAt)) {
			t.Fatalf("first failure %q does not name offset %d", err, failAt)
		}
		done := r.Done()
		switch {
		case err != nil:
			if done != err {
				t.Fatalf("Done() = %v, want the first failure %v", done, err)
			}
		case off == len(buf):
			if done != nil {
				t.Fatalf("Done() = %v on fully read input", done)
			}
		default:
			if done == nil || !strings.HasPrefix(done.Error(), fmt.Sprintf("byte %d: %d trailing bytes", off, len(buf)-off)) {
				t.Fatalf("Done() = %v with %d of %d bytes read", done, off, len(buf))
			}
		}
	})
}
