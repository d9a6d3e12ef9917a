package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// drain pulls a stream to exhaustion, failing the test on any error.
func drain(t *testing.T, s Stream) []Request {
	t.Helper()
	var out []Request
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(1)), 50)
	got, err := Collect(FromSlice(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Reqs, tr.Reqs) {
		t.Fatalf("Collect(FromSlice(tr)) != tr")
	}
}

func TestStreamResetDeterminism(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(2)), 40)
	tr.SortByArrival()
	streams := map[string]Stream{
		"slice":     FromSlice(tr),
		"generated": Generated(tr.Name, func() *Trace { return tr }),
		"map":       MapStream(FromSlice(tr), func(r Request) Request { r.Arrival++; return r }),
		"filter":    FilterStream(FromSlice(tr), func(r Request) bool { return r.Op == Write }),
		"merge":     MergeStreams("m", FromSlice(tr), FromSlice(tr)),
		"repeat":    Repeat(FromSlice(tr), 3, 1000),
	}
	for name, s := range streams {
		first := drain(t, s)
		// Partial re-drain before Reset must not disturb determinism.
		if err := s.Reset(); err != nil {
			t.Fatalf("%s: Reset: %v", name, err)
		}
		if _, _, err := s.Next(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Reset(); err != nil {
			t.Fatalf("%s: second Reset: %v", name, err)
		}
		second := drain(t, s)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two drains of one stream differ", name)
		}
	}
}

func TestCollectResetsPartiallyConsumedStream(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 10)
	s := FromSlice(tr)
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reqs) != len(tr.Reqs) {
		t.Fatalf("Collect after partial drain got %d of %d requests", len(got.Reqs), len(tr.Reqs))
	}
}

func TestGeneratedRunsGeneratorOnce(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(4)), 5)
	calls := 0
	s := Generated("lazy", func() *Trace { calls++; return tr })
	if calls != 0 {
		t.Fatalf("generator ran before first Next")
	}
	drain(t, s)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if calls != 1 {
		t.Fatalf("generator ran %d times, want 1 (Reset must not regenerate)", calls)
	}
}

func TestScaleStreamPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for factor 0")
		}
	}()
	ScaleStream(FromSlice(mkTrace()), 0)
}

func TestClearStreamZeroesTimestamps(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)), 20)
	got, err := Collect(ClearStream(FromSlice(tr)))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Reqs {
		if r.ServiceStart != 0 || r.Finish != 0 {
			t.Fatalf("request %d keeps timestamps after ClearStream", i)
		}
	}
}

func TestFilterStreamAndNamed(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(8)), 60)
	s := Named(FilterStream(FromSlice(tr), func(r Request) bool { return r.Op == Read }), tr.Name+"-reads")
	if s.Name() != tr.Name+"-reads" {
		t.Fatalf("Named: got %q", s.Name())
	}
	got := drain(t, s)
	want := 0
	for _, r := range tr.Reqs {
		if r.Op == Read {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("filter kept %d of %d reads", len(got), want)
	}
	for _, r := range got {
		if r.Op != Read {
			t.Fatalf("filter leaked a write")
		}
	}
}

func TestMergeStreamsMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a, b := randomTrace(r, 40), randomTrace(r, 25)
	a.SortByArrival()
	b.SortByArrival()
	// Force an arrival tie so the tie-break rule is exercised.
	if len(a.Reqs) > 0 && len(b.Reqs) > 0 {
		b.Reqs[0].Arrival = a.Reqs[0].Arrival
		b.SortByArrival()
	}
	want := Merge("combo", a, b)
	got, err := Collect(MergeStreams("combo", FromSlice(a), FromSlice(b)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.Reqs, want.Reqs) {
		t.Fatalf("MergeStreams drifts from Merge")
	}
}

func TestRepeatMatchesConcat(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(10)), 35)
	tr.SortByArrival()
	want := Concat(tr.Name, 1_000_000, tr, tr, tr)
	got, err := Collect(Repeat(FromSlice(tr), 3, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Reqs, want.Reqs) {
		t.Fatalf("Repeat drifts from Concat:\n got %d reqs\nwant %d reqs", len(got.Reqs), len(want.Reqs))
	}
}

func TestStreamingCodecRoundTrips(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(11)), 80)
	tr.SortByArrival()

	writers := map[string]func(*bytes.Buffer) error{
		"text":       func(b *bytes.Buffer) error { return WriteTextStream(b, FromSlice(tr)) },
		"binary":     func(b *bytes.Buffer) error { return WriteBinaryStream(b, FromSlice(tr)) },
		"compressed": func(b *bytes.Buffer) error { return WriteCompressed(b, tr) },
	}
	for format, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: write: %v", format, err)
		}
		st, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", format, err)
		}
		if st.Name() != tr.Name {
			t.Errorf("%s: decoder name %q, want %q", format, st.Name(), tr.Name)
		}
		first := drain(t, st)
		if !reflect.DeepEqual(first, tr.Reqs) {
			t.Fatalf("%s: streaming decode drifts from original", format)
		}
		if err := st.Reset(); err != nil {
			t.Fatalf("%s: Reset: %v", format, err)
		}
		second := drain(t, st)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: decoder not deterministic across Reset", format)
		}
	}
}

func TestStreamingEncodersMatchBatchCodecs(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(12)), 45)
	tr.SortByArrival()

	var batch, stream bytes.Buffer
	if err := WriteText(&batch, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTextStream(&stream, FromSlice(tr)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Errorf("WriteTextStream output differs from WriteText")
	}

	batch.Reset()
	stream.Reset()
	if err := WriteBinary(&batch, tr); err != nil {
		t.Fatal(err)
	}
	enc, err := NewBinaryEncoder(&stream, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Reqs {
		if err := enc.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	// A non-seekable streaming binary write carries the read-to-EOF count
	// sentinel instead of the record count; both must decode identically.
	a, err := ReadBinary(bytes.NewReader(batch.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBinary(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || !reflect.DeepEqual(a.Reqs, b.Reqs) {
		t.Errorf("streaming binary encode decodes differently from batch encode")
	}
}
