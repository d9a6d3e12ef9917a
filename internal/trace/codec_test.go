package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func randomTrace(r *rand.Rand, n int) *Trace {
	t := &Trace{Name: "Random"}
	var at int64
	for i := 0; i < n; i++ {
		at += r.Int63n(1000000)
		pages := r.Intn(64) + 1
		req := Request{
			Arrival: at,
			LBA:     uint64(r.Intn(1<<20)) * SectorsPerPage,
			Size:    uint32(pages * PageSize),
			Op:      Op(r.Intn(2)),
		}
		if r.Intn(2) == 0 {
			req.ServiceStart = at + r.Int63n(10000)
			req.Finish = req.ServiceStart + r.Int63n(100000) + 1
		}
		t.Reqs = append(t.Reqs, req)
	}
	return t
}

func TestTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := randomTrace(r, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("text round trip changed the trace")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := randomTrace(r, 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("binary round trip changed the trace")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n)%64)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if tr.Name != got.Name || len(tr.Reqs) != len(got.Reqs) {
			return false
		}
		for i := range tr.Reqs {
			if tr.Reqs[i] != got.Reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTraceRoundTrips(t *testing.T) {
	tr := &Trace{Name: "Empty"}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Empty" || len(got.Reqs) != 0 {
		t.Fatalf("got %q with %d reqs", got.Name, len(got.Reqs))
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"1 2 3\n",
		"a b c d e f\n",
		"1 2 4096 X 0 0\n",
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("ReadText accepted %q", c)
		}
	}
}

func TestReadTextSkipsCommentsAndBlank(t *testing.T) {
	in := "# name: Foo\n\n# comment\n100 8 4096 W 0 0\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "Foo" || len(tr.Reqs) != 1 {
		t.Fatalf("got name %q, %d reqs", tr.Name, len(tr.Reqs))
	}
}

// The name comes from the comments before the first record; a "# name:"
// comment further down is an ordinary comment.
func TestReadTextNameFromHeaderOnly(t *testing.T) {
	in := "# name: First\n1 8 4096 W 0 0\n# name: Later\n2 16 4096 R 0 0\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "First" || len(tr.Reqs) != 2 {
		t.Fatalf("ReadText: name %q, %d reqs", tr.Name, len(tr.Reqs))
	}
	name, n, err := StreamText(strings.NewReader(in), func(Request) error { return nil })
	if err != nil || name != "First" || n != 2 {
		t.Fatalf("StreamText: name %q, %d reqs, err %v", name, n, err)
	}
}

func TestReadBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("ReadBinary accepted bad magic")
	}
}

func TestReadBinaryRejectsTruncated(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("ReadBinary accepted truncated stream")
	}
}

func TestReadBinaryRejectsBadOp(t *testing.T) {
	tr := &Trace{Name: "X", Reqs: []Request{{Arrival: 1, Size: 4096, Op: Write}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the op byte of the single record: header is 4+1+len(name)+8.
	opOff := 4 + 1 + len("X") + 8 + 20
	b[opOff] = 7
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("ReadBinary accepted bad op byte")
	}
}

func TestStreamText(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(9)), 300)
	tr.Name = "Streamed"
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var got []Request
	name, n, err := StreamText(&buf, func(r Request) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if name != "Streamed" || n != 300 || len(got) != 300 {
		t.Fatalf("name %q n %d len %d", name, n, len(got))
	}
	for i := range got {
		if got[i] != tr.Reqs[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestStreamTextEarlyStop(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(10)), 50)
	var buf bytes.Buffer
	WriteText(&buf, tr)
	sentinel := errStop{}
	count := 0
	_, _, err := StreamText(&buf, func(Request) error {
		count++
		if count == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("early-stop error not returned: %v", err)
	}
	if count != 10 {
		t.Fatalf("callback ran %d times", count)
	}
}

type errStop struct{}

func (errStop) Error() string { return "stop" }

func TestStreamTextBadLine(t *testing.T) {
	if _, _, err := StreamText(strings.NewReader("1 2 3\n"), func(Request) error { return nil }); err == nil {
		t.Fatal("bad line accepted")
	}
}

// Truncated or corrupt binary streams must produce errors that name the
// failing record and its byte offset — the difference between "file is bad"
// and knowing where to point xxd.
func TestReadBinaryDescriptiveErrors(t *testing.T) {
	full := func() []byte {
		var buf bytes.Buffer
		tr := &Trace{Name: "AB", Reqs: []Request{
			{Arrival: 1, LBA: 8, Size: 4096, Op: Write},
			{Arrival: 2, LBA: 16, Size: 4096, Op: Read},
			{Arrival: 3, LBA: 24, Size: 4096, Op: Write},
		}}
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	headerLen := 4 + 1 + 2 + 8 // magic, name length, "AB", count

	cases := []struct {
		name string
		in   []byte
		want []string
	}{
		{"cut mid-name", full[:6], []string{"name", "offset 5"}},
		{"cut mid-count", full[:headerLen-3], []string{"record count", "offset 7"}},
		{"cut mid-record", full[:headerLen+2*recordSize+10],
			[]string{"record 2 of 3", fmt.Sprintf("offset %d", headerLen+2*recordSize)}},
		{"bad op", func() []byte {
			b := append([]byte(nil), full...)
			b[headerLen+recordSize+20] = 9 // second record's op byte
			return b
		}(), []string{"record 1", fmt.Sprintf("offset %d", headerLen+recordSize), "bad op 9"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(c.in))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// A header claiming 2^28 records backed by zero bytes of data must fail
// fast without preallocating the claimed size.
func TestReadBinaryCapsPreallocation(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BIO1")
	buf.WriteByte(0)                             // empty name
	buf.Write([]byte{0, 0, 0, 0x10, 0, 0, 0, 0}) // count = 1<<28, no records
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// The codecs' bytes are a file format: pin them, and require a file
// destination to receive the same bytes as an in-memory buffer.
func TestCodecBytesPinned(t *testing.T) {
	long := randomTrace(rand.New(rand.NewSource(13)), 200)
	long.Name = strings.Repeat("n", 300) // binary headers keep 255 bytes
	traces := map[string]*Trace{
		"random":   randomTrace(rand.New(rand.NewSource(5)), 800),
		"empty":    {Name: "Empty"},
		"longname": long,
	}
	writers := map[string]func(io.Writer, *Trace) error{
		"text": WriteText, "binary": WriteBinary, "compressed": WriteCompressed,
	}
	want := map[string]string{
		"random/text":         "f7470f06b33ebd6c",
		"random/binary":       "802a695f723240a2",
		"random/compressed":   "d6edb534cdf46932",
		"empty/text":          "5629e27015cdd73f",
		"empty/binary":        "f933d587f64dbab3",
		"empty/compressed":    "23636bffc7305944",
		"longname/text":       "f6c1fd98999d4bd4",
		"longname/binary":     "b0d5aa6febc2cd78",
		"longname/compressed": "591f0cb10c1f782a",
	}
	for tn, tr := range traces {
		for wn, write := range writers {
			key := tn + "/" + wn
			var buf bytes.Buffer
			if err := write(&buf, tr); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			path := filepath.Join(t.TempDir(), "out")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := write(f, tr); err != nil {
				t.Fatalf("%s into a file: %v", key, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, buf.Bytes()) {
				t.Errorf("%s: file bytes differ from buffer bytes", key)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:8]); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// Headers declaring the largest accepted record count with no records
// behind them must fail, and must not allocate for the declared count.
func TestHostileRecordCountsAllocateLittle(t *testing.T) {
	var bioz []byte
	bioz = append(bioz, "BIOZ\x00"...)
	bioz = binary.AppendUvarint(bioz, maxReasonableRecords)
	bio1 := append([]byte("BIO1\x00"), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(bio1[5:], maxReasonableRecords)
	for _, c := range []struct {
		name string
		in   []byte
		read func(io.Reader) (*Trace, error)
	}{
		{"BIO1", bio1, ReadBinary},
		{"BIOZ", bioz, ReadCompressed},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.read(bytes.NewReader(c.in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: header without records accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: reading a hostile header allocated %d bytes", c.name, grew)
		}
	}
}
