package androidstack

import (
	"fmt"
	"testing"

	"emmcio/internal/analysis"
	"emmcio/internal/rng"
	"emmcio/internal/stats"
	"emmcio/internal/trace"
)

func newStack(t *testing.T) (*FS, *TraceSink) {
	t.Helper()
	sink := &TraceSink{}
	return NewFS(sink), sink
}

func TestCreateWriteFsync(t *testing.T) {
	fs, sink := newStack(t)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("f", 0, 100); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) != 0 {
		t.Fatal("write emitted blocks before fsync (page cache bypassed)")
	}
	if err := fs.Fsync("f"); err != nil {
		t.Fatal(err)
	}
	// 1 data block + descriptor + >=1 metadata + commit.
	if got := len(sink.Trace.Reqs); got < 4 {
		t.Fatalf("fsync emitted %d requests, want >= 4 (data + journal txn)", got)
	}
	if err := sink.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTinyWriteAmplification(t *testing.T) {
	fs, _ := newStack(t)
	fs.Create("f")
	fs.Write("f", 0, 100) // a 100-byte append
	fs.Fsync("f")
	s := fs.Stats()
	// 100 app bytes → >= 16 KB of block writes (data + journal).
	if s.WriteAmplification() < 100 {
		t.Fatalf("write amplification %.0fx for a 100-byte durable write; Lee&Won-style blowup expected", s.WriteAmplification())
	}
}

func TestOrderedModeDataBeforeJournal(t *testing.T) {
	fs, sink := newStack(t)
	fs.Create("f")
	fs.Write("f", 0, 4096)
	fs.Fsync("f")
	reqs := sink.Trace.Reqs
	// First request is the data block (in place), the rest the journal.
	journalStart := uint64(1) << 30 / trace.SectorSize
	if reqs[0].LBA >= journalStart && reqs[0].LBA < journalStart+(128<<20)/trace.SectorSize {
		t.Fatal("journal written before data (ordered mode violated)")
	}
	for _, r := range reqs[1:] {
		if r.LBA < journalStart {
			t.Fatal("data block inside the journal transaction")
		}
	}
}

func TestJournalIsSequential(t *testing.T) {
	fs, sink := newStack(t)
	fs.Create("f")
	for i := 0; i < 50; i++ {
		fs.Write("f", int64(i)*4096, 4096)
		fs.Fsync("f")
	}
	var journal trace.Trace
	journalStart := uint64(1) << 30 / trace.SectorSize
	journalEnd := journalStart + uint64(128)<<20/trace.SectorSize
	for _, r := range sink.Trace.Reqs {
		if r.LBA >= journalStart && r.LBA < journalEnd {
			journal.Reqs = append(journal.Reqs, r)
		}
	}
	if sp := analysis.Of(&journal).SpatialLocality(); sp < 0.9 {
		t.Fatalf("journal spatial locality %.2f, want ~1 (sequential journal)", sp)
	}
}

func TestJournalWraps(t *testing.T) {
	fs, _ := newStack(t)
	fs.Create("f")
	// Push far more journal blocks than the 128 MB region holds.
	fs.journalPtr = fs.journalLen - trace.SectorsPerPage
	if err := fs.commitJournal(3); err != nil {
		t.Fatal(err)
	}
	if fs.journalPtr > fs.journalLen {
		t.Fatal("journal pointer escaped the journal region")
	}
}

func TestFSErrors(t *testing.T) {
	fs, _ := newStack(t)
	if err := fs.Write("nope", 0, 10); err == nil {
		t.Fatal("write to missing file accepted")
	}
	if err := fs.Fsync("nope"); err == nil {
		t.Fatal("fsync of missing file accepted")
	}
	if err := fs.Read("nope", 0, 10); err == nil {
		t.Fatal("read of missing file accepted")
	}
	fs.Create("f")
	if err := fs.Create("f"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := fs.Write("f", 0, 0); err == nil {
		t.Fatal("zero-byte write accepted")
	}
	if err := fs.Write("f", 17<<20, 4096); err == nil {
		t.Fatal("extent overflow accepted")
	}
}

func TestDeleteEmitsMetadataCommit(t *testing.T) {
	fs, sink := newStack(t)
	fs.Create("f")
	before := len(sink.Trace.Reqs)
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) <= before {
		t.Fatal("delete emitted no journal commit")
	}
	if fs.Exists("f") {
		t.Fatal("file still exists")
	}
}

func TestRollbackTransactionShape(t *testing.T) {
	fs, sink := newStack(t)
	db, err := OpenDB(fs, "app.db", Rollback)
	if err != nil {
		t.Fatal(err)
	}
	before := len(sink.Trace.Reqs)
	if err := db.Exec([]int64{3}); err != nil {
		t.Fatal(err)
	}
	emitted := sink.Trace.Reqs[before:]
	// One single-page transaction in rollback mode costs:
	// journal data (header+old page) + journal-file journal txn +
	// db page + db journal txn + journal-delete txn  => >= 10 block writes.
	if len(emitted) < 10 {
		t.Fatalf("rollback transaction emitted %d requests, want >= 10", len(emitted))
	}
	for _, r := range emitted {
		if r.Op != trace.Write {
			t.Fatal("rollback transaction should be all writes")
		}
	}
}

func TestWALCheaperThanRollback(t *testing.T) {
	// Stack-level write amplification: block bytes written per logical
	// database byte changed.
	waf := func(mode JournalMode) float64 {
		fs, _ := newStack(t)
		db, err := OpenDB(fs, "app.db", mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Exec([]int64{int64(i % 10)}); err != nil {
				t.Fatal(err)
			}
		}
		return float64(fs.Stats().BlockBytes) / float64(db.LogicalBytes())
	}
	r := waf(Rollback)
	w := waf(WAL)
	if w >= r {
		t.Fatalf("WAL amplification %.1fx not below rollback %.1fx", w, r)
	}
	if r < 8 {
		t.Fatalf("rollback amplification %.1fx too low for the journaling-of-journal effect", r)
	}
}

func TestWALCheckpoints(t *testing.T) {
	fs, _ := newStack(t)
	db, err := OpenDB(fs, "app.db", WAL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Exec([]int64{int64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Checkpoints == 0 {
		t.Fatal("WAL never checkpointed after 300 transactions")
	}
}

func TestStackClockMonotonic(t *testing.T) {
	fs, sink := newStack(t)
	db, _ := OpenDB(fs, "app.db", Rollback)
	fs.SetTime(1_000_000_000)
	db.Exec([]int64{1, 2})
	fs.SetTime(5_000_000_000)
	db.Exec([]int64{1})
	if err := sink.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// SetTime backwards must not rewind.
	fs.SetTime(1)
	if fs.Now() < 5_000_000_000 {
		t.Fatal("clock went backwards")
	}
}

// The stack's emitted traffic shares the paper's block-level signature:
// write-dominant with a large single-page share (Characteristics 1 and 2).
func TestStackTrafficMatchesPaperSignature(t *testing.T) {
	fs, sink := newStack(t)
	db, _ := OpenDB(fs, "app.db", Rollback)
	for i := 0; i < 100; i++ {
		fs.SetTime(int64(i) * 50_000_000)
		db.Exec([]int64{int64(i % 20)})
	}
	tr := &sink.Trace
	writeFrac := float64(tr.WriteCount()) / float64(len(tr.Reqs))
	if writeFrac < 0.9 {
		t.Fatalf("write fraction %.2f, want write-dominant", writeFrac)
	}
	h := stats.NewHistogram(stats.SizeBounds())
	for _, r := range tr.Reqs {
		h.Add(int64(r.Size))
	}
	if p4 := h.Fractions()[0]; p4 < 0.5 {
		t.Fatalf("single-page fraction %.2f, want the Characteristic-2 shape", p4)
	}
}

func TestPageCacheServesHotReads(t *testing.T) {
	fs, sink := newStack(t)
	db, _ := OpenDB(fs, "app.db", Rollback)
	db.Exec([]int64{5})
	before := len(sink.Trace.Reqs)
	// The page just written is in the cache: querying it emits nothing.
	if err := db.Query([]int64{5}); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) != before {
		t.Fatal("hot query reached the block layer")
	}
	// A cold page misses and produces one read.
	if err := db.Query([]int64{999}); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) != before+1 {
		t.Fatalf("cold query emitted %d requests", len(sink.Trace.Reqs)-before)
	}
	// Re-querying it now hits.
	if err := db.Query([]int64{999}); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) != before+1 {
		t.Fatal("second cold query missed the cache")
	}
	if fs.CacheHitRate() <= 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestCachedReadCoalescesMissRuns(t *testing.T) {
	fs, sink := newStack(t)
	fs.Create("f")
	before := len(sink.Trace.Reqs)
	// 8 cold blocks: one coalesced 32 KB read, not 8 singles.
	if err := fs.CachedRead("f", 0, 8*4096); err != nil {
		t.Fatal(err)
	}
	emitted := sink.Trace.Reqs[before:]
	if len(emitted) != 1 || emitted[0].Size != 8*4096 {
		t.Fatalf("cold run emitted %+v", emitted)
	}
}

func TestDeleteInvalidatesCache(t *testing.T) {
	fs, sink := newStack(t)
	fs.Create("f")
	fs.Write("f", 0, 4096)
	fs.Fsync("f")
	fs.Delete("f")
	fs.Create("f")
	before := len(sink.Trace.Reqs)
	if err := fs.CachedRead("f", 0, 4096); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) == before {
		t.Fatal("read of a recreated file served from the dead file's cache")
	}
}

func TestQueryErrors(t *testing.T) {
	fs, _ := newStack(t)
	db, _ := OpenDB(fs, "app.db", WAL)
	if err := db.Query(nil); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestAccessStaysInsideTheExtent: a read, a cached read or a write of a
// range past the file's 16 MB extent or at a negative offset fails with
// the extent-overflow error and emits nothing, where it would otherwise
// address the next file's blocks (or blocks before the file); the last
// block of the extent still reads.
func TestAccessStaysInsideTheExtent(t *testing.T) {
	const extent = 16 << 20
	fs, sink := newStack(t)
	for _, name := range []string{"a", "b"} {
		if err := fs.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	calls := map[string]func(off, n int64) error{
		"Read":       func(off, n int64) error { return fs.Read("a", off, n) },
		"CachedRead": func(off, n int64) error { return fs.CachedRead("a", off, n) },
		"Write":      func(off, n int64) error { return fs.Write("a", off, n) },
	}
	for call, do := range calls {
		for _, r := range []struct{ off, n int64 }{
			{extent, 4096},
			{extent - 4096, 8192},
			{-4096, 4096},
			{-1, 4096},
			{0, extent + 4096},
		} {
			before := len(sink.Trace.Reqs)
			err := do(r.off, r.n)
			if err == nil || err.Error() != "androidstack: a extent overflow" {
				t.Errorf("%s(a, %d, %d) = %v, want the extent overflow error", call, r.off, r.n, err)
			}
			if n := len(sink.Trace.Reqs) - before; n != 0 {
				t.Errorf("%s(a, %d, %d) emitted %d requests", call, r.off, r.n, n)
			}
		}
	}
	for _, call := range []string{"Read", "CachedRead"} {
		before := len(sink.Trace.Reqs)
		if err := calls[call](extent-4096, 4096); err != nil {
			t.Fatalf("%s of the extent's last block: %v", call, err)
		}
		if n := len(sink.Trace.Reqs) - before; call == "Read" && n != 1 {
			t.Errorf("Read of the extent's last block emitted %d requests, want 1", n)
		}
	}
}

// TestRejectedWriteCountsNoAppBytes: a write the extent check rejects
// persists nothing, so it adds no application bytes and leaves the write
// amplification as it was.
func TestRejectedWriteCountsNoAppBytes(t *testing.T) {
	fs, _ := newStack(t)
	if err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("a", 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("a", 16<<20, 4096); err == nil {
		t.Fatal("write past the extent accepted")
	}
	if got := fs.Stats().AppBytes; got != 4096 {
		t.Fatalf("AppBytes = %d after one accepted and one rejected 4 KB write, want 4096", got)
	}
}

// extentSink checks every request the stack emits against the files the
// current operation may touch: the request must lie inside one of their
// extents or inside the ext4 journal region. It is consulted at emission
// time, while a rollback journal that is deleted later still exists.
type extentSink struct {
	fs    *FS
	files []string
	n     int
}

func (s *extentSink) Submit(q trace.Request) error {
	s.n++
	fs := s.fs
	if q.LBA >= fs.journalStart && q.EndLBA() <= fs.journalStart+fs.journalLen {
		return nil
	}
	for _, name := range s.files {
		if fl, ok := fs.files[name]; ok && q.LBA >= fl.base && q.EndLBA() <= fl.base+fl.sectors {
			return nil
		}
	}
	return fmt.Errorf("request at LBA %d (%d B) lies outside %v and the journal region", q.LBA, q.Size, s.files)
}

// TestSQLiteRequestsStayInTheirFiles: over seeded SQLite workloads in both
// journal modes, with several databases sharing one file system, every
// request an operation on a database emits lies inside that database's
// file, its WAL or rollback-journal file, or the ext4 journal region —
// never in another database's blocks.
func TestSQLiteRequestsStayInTheirFiles(t *testing.T) {
	for _, mode := range []JournalMode{Rollback, WAL} {
		for seed := uint64(1); seed <= 3; seed++ {
			sink := &extentSink{}
			fs := NewFS(sink)
			sink.fs = fs
			dbs := make([]*DB, 3)
			for i := range dbs {
				name := fmt.Sprintf("app%d.db", i)
				sink.files = []string{name, name + "-wal", name + "-journal"}
				db, err := OpenDB(fs, name, mode)
				if err != nil {
					t.Fatalf("%v seed %d: open %s: %v", mode, seed, name, err)
				}
				dbs[i] = db
			}
			r := rng.New(seed)
			for op := 0; op < 1500; op++ {
				fs.SetTime(int64(op) * 1000)
				db := dbs[r.IntN(len(dbs))]
				sink.files = []string{db.name, db.walName(), db.journalName()}
				pages := make([]int64, 1+r.IntN(8))
				for i := range pages {
					pages[i] = r.Int63N(4096) // any page of the 16 MB extent
				}
				var err error
				if r.Bool(0.5) {
					err = db.Exec(pages)
				} else {
					err = db.Query(pages)
				}
				if err != nil {
					t.Fatalf("%v seed %d op %d on %s: %v", mode, seed, op, db.name, err)
				}
			}
			if sink.n == 0 {
				t.Fatalf("%v seed %d: the workload emitted nothing", mode, seed)
			}
		}
	}
}
