package androidstack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"emmcio/internal/rng"
)

// TestPageCachedWorkloadPinned pins a seeded SQLite workload run with the
// page cache on: the digest of every request the stack emits and the
// cache's hit rate. The workload touches more distinct pages than the
// 64 MB cache holds, so both hits and evictions shape the sequence, and it
// deletes and recreates a file so invalidation does too. A change to the
// cache's recency order or invalidation moves the digest.
func TestPageCachedWorkloadPinned(t *testing.T) {
	fs, sink := newStack(t)
	// Six databases of up to 4,000 pages each: 24,000 pages against a
	// cache of 16,384 blocks.
	var dbs []*DB
	for i, mode := range []JournalMode{Rollback, WAL, Rollback, WAL, Rollback, WAL} {
		db, err := OpenDB(fs, fmt.Sprintf("app%d.db", i), mode)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	r := rng.New(25)
	page := func() int64 {
		if r.Bool(0.6) {
			return r.Int63N(256) // hot table
		}
		return r.Int63N(4000)
	}
	pages := func() []int64 {
		out := make([]int64, 1+r.IntN(4))
		for i := range out {
			out[i] = page()
		}
		return out
	}
	for i := 0; i < 20000; i++ {
		fs.SetTime(int64(i) * 1000)
		db := dbs[r.IntN(len(dbs))]
		var err error
		switch x := r.IntN(10); {
		case x < 3:
			err = db.Exec(pages())
		case x < 9:
			err = db.Query(pages())
		default:
			// A scratch file is rewritten, read back and deleted.
			name := "tmp"
			if !fs.Exists(name) {
				err = fs.Create(name)
			}
			if err == nil {
				err = fs.Write(name, 0, 4*blockBytes)
			}
			if err == nil {
				err = fs.CachedRead(name, 0, 8*blockBytes)
			}
			if err == nil && r.Bool(0.5) {
				err = fs.Delete(name)
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	h := sha256.New()
	var b [29]byte
	for _, q := range sink.Trace.Reqs {
		binary.LittleEndian.PutUint64(b[0:], uint64(q.Arrival))
		binary.LittleEndian.PutUint64(b[8:], q.LBA)
		binary.LittleEndian.PutUint32(b[16:], q.Size)
		b[20] = byte(q.Op)
		binary.LittleEndian.PutUint64(b[21:], uint64(q.Finish))
		h.Write(b[:])
	}
	const (
		wantReqs = 75079
		wantSHA  = "3975f6ef62d6b8b4f9e38673dbced14e18f4fee05a52dad0a7311e48832d0e02"
		wantHit  = 0.7014864105777124
	)
	if got := hex.EncodeToString(h.Sum(nil)); len(sink.Trace.Reqs) != wantReqs || got != wantSHA {
		t.Errorf("emitted %d requests, sha256 %s; want %d, %s", len(sink.Trace.Reqs), got, wantReqs, wantSHA)
	}
	if got := fs.CacheHitRate(); got != wantHit {
		t.Errorf("CacheHitRate %v, want %v", got, wantHit)
	}
}
