package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets: the trace parsers must never panic on arbitrary
// input, and anything they accept must re-serialize losslessly. The text,
// BIO1 and BIOZ targets are also differential: the slice reader and the
// stream decoder of a format must reject an input with the same error text
// or accept it as the same trace.

// decodeAll drains a freshly built decoder from its first record, the way a
// consumer reading from a pipe sees it (no Reset).
func decodeAll[S Stream](s S, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: s.Name()}
	for {
		r, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return t, nil
		}
		t.Reqs = append(t.Reqs, r)
	}
}

// sameOutcome fails unless the slice reader's and the decoder's results
// agree. A nil and an empty request slice count as the same trace.
func sameOutcome(t *testing.T, slice *Trace, sliceErr error, dec *Trace, decErr error) {
	t.Helper()
	switch {
	case sliceErr != nil && decErr != nil:
		if sliceErr.Error() != decErr.Error() {
			t.Fatalf("error texts differ:\nslice   %v\ndecoder %v", sliceErr, decErr)
		}
		return
	case sliceErr != nil:
		t.Fatalf("slice reader rejected what the decoder accepted: %v", sliceErr)
	case decErr != nil:
		t.Fatalf("decoder rejected what the slice reader accepted: %v", decErr)
	}
	if slice.Name != dec.Name {
		t.Fatalf("names differ: slice %q, decoder %q", slice.Name, dec.Name)
	}
	if len(slice.Reqs) != len(dec.Reqs) {
		t.Fatalf("request counts differ: slice %d, decoder %d", len(slice.Reqs), len(dec.Reqs))
	}
	for i := range slice.Reqs {
		if slice.Reqs[i] != dec.Reqs[i] {
			t.Fatalf("request %d differs:\nslice   %+v\ndecoder %+v", i, slice.Reqs[i], dec.Reqs[i])
		}
	}
}

func FuzzReadText(f *testing.F) {
	f.Add("# name: X\n100 8 4096 W 0 0\n")
	f.Add("1 2 3 R 4 5\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(strings.NewReader(in))
		dec, decErr := decodeAll(NewTextDecoder(strings.NewReader(in)), nil)
		sameOutcome(t, tr, err, dec, decErr)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Reqs) != len(tr.Reqs) {
			t.Fatalf("round trip changed request count %d -> %d", len(tr.Reqs), len(back.Reqs))
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, &Trace{Name: "S", Reqs: []Request{{Arrival: 1, LBA: 8, Size: 4096, Op: Write}}})
	f.Add(seed.Bytes())
	f.Add([]byte("BIO1"))
	f.Add([]byte{})
	// Truncation seeds: a valid stream cut inside the header, inside the
	// count, and inside a record body.
	f.Add(seed.Bytes()[:3])
	f.Add(seed.Bytes()[:seed.Len()-recordSize+5])
	// A hostile count with no records behind it: must error cheaply, not
	// allocate gigabytes.
	f.Add(append([]byte("BIO1\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		dec, decErr := decodeAll(NewBinaryDecoder(bytes.NewReader(in)))
		sameOutcome(t, tr, err, dec, decErr)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
	})
}

func FuzzReadCompressed(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteCompressed(&seed, &Trace{Name: "s", Reqs: []Request{{Arrival: 5, LBA: 8, Size: 4096, Op: Write}}})
	f.Add(seed.Bytes())
	f.Add([]byte("BIOZ"))
	// A header declaring 119M records with none behind them: must error
	// without sizing a slice for the declared count.
	f.Add([]byte{'B', 'I', 'O', 'Z', 1, '0', 0x80, 0xd0, 0xf8, 0x38})
	// A service time whose Finish overflows int64: must be rejected, not
	// decoded into an acausal request.
	f.Add([]byte("BIOZ\x010\x01000\x010\x98\x98\x98\x98\x98\x98\x88\x98\x98\x01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadCompressed(bytes.NewReader(in))
		dec, decErr := decodeAll(NewCompressedDecoder(bytes.NewReader(in)))
		sameOutcome(t, tr, err, dec, decErr)
		if err != nil {
			return
		}
		// Anything accepted must re-serialize.
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
	})
}

func FuzzReadBlkparse(f *testing.F) {
	f.Add("8,0 0 1 0.000001 1 Q W 800 + 8 [x]\n")
	f.Add("junk\n8,0 0 1 0.0 1 C R 0 + 1 [y]\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadBlkparse(strings.NewReader(in))
		if err != nil || tr == nil {
			return
		}
		// Accepted traces are arrival-sorted by contract.
		var prev int64
		for _, r := range tr.Reqs {
			if r.Arrival < prev {
				t.Fatal("blkparse output not arrival-sorted")
			}
			prev = r.Arrival
		}
	})
}
