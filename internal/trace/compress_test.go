package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestCompressedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := randomTrace(r, 800)
	// The codec stores wait/service, so unreplayed requests stay zeroed and
	// replayed ones must be causal. randomTrace already generates causal
	// or zero timestamps.
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		for i := range tr.Reqs {
			if tr.Reqs[i] != got.Reqs[i] {
				t.Fatalf("record %d differs:\nin  %+v\nout %+v", i, tr.Reqs[i], got.Reqs[i])
			}
		}
		t.Fatal("round trip changed the trace")
	}
}

func TestCompressedSmallerThanBinary(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tr := randomTrace(r, 5000)
	var bin, comp bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteCompressed(&comp, tr); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= bin.Len() {
		t.Fatalf("compressed %d bytes not below binary %d", comp.Len(), bin.Len())
	}
	ratio := float64(bin.Len()) / float64(comp.Len())
	if ratio < 1.5 {
		t.Fatalf("compression ratio only %.2fx", ratio)
	}
}

func TestCompressedRejectsUnsorted(t *testing.T) {
	tr := &Trace{Reqs: []Request{
		{Arrival: 100, Size: 4096}, {Arrival: 50, Size: 4096},
	}}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

func TestCompressedRejectsUnaligned(t *testing.T) {
	tr := &Trace{Reqs: []Request{{Arrival: 1, Size: 1000}}}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err == nil {
		t.Fatal("unaligned size accepted")
	}
}

func TestCompressedRejectsTruncated(t *testing.T) {
	tr := &Trace{Name: "x", Reqs: []Request{{Arrival: 1, Size: 4096, Op: Write}}}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadCompressed(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := ReadCompressed(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}
