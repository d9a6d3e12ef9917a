// Package androidstack models the upper half of the paper's Fig. 1 I/O
// stack: applications talking to SQLite, SQLite talking to an Ext4-like
// journaling file system, and the file system emitting block-layer
// requests.
//
// The paper's motivation leans on Lee & Won's finding (§VI) that "the
// combined operations of SQLite and Ext4 generate unnecessarily excessive
// write operations": a tiny database insert becomes many 4 KB block writes
// through rollback journaling and file-system metadata journaling. This
// package reproduces that amplification pipeline so it can be measured
// against the block-level characteristics of §III.
package androidstack

import (
	"fmt"

	"emmcio/internal/trace"
)

// Sink receives the block-level requests the stack emits. A *trace.Trace
// collector, the blockdev stack, or a device can all stand behind it.
type Sink interface {
	Submit(req trace.Request) error
}

// TraceSink collects requests into a trace.
type TraceSink struct {
	Trace trace.Trace
}

// Submit appends the request.
func (s *TraceSink) Submit(req trace.Request) error {
	s.Trace.Reqs = append(s.Trace.Reqs, req)
	return nil
}

// Ext4-like layout constants.
const (
	blockBytes = trace.PageSize
	// syscallNs advances the clock per emitted block request, a stand-in
	// for the CPU path between requests.
	syscallNs = 50_000
)

// FS is a minimal Ext4-in-ordered-mode model: file data is written in
// place, metadata changes are journaled (descriptor + metadata blocks +
// commit, all sequential in a dedicated journal region), and fsync forces
// data first, then a journal commit — the ordered-mode rule.
type FS struct {
	sink Sink
	now  int64

	journalStart uint64 // sectors
	journalLen   uint64 // sectors
	journalPtr   uint64 // rotating allocation pointer inside the journal

	nextAlloc uint64 // sectors; simple bump allocator for file extents
	files     map[string]*file
	cache     *pageCache // OS page cache for reads (nil = uncached)

	// Stats.
	dataWrites     int
	journalWrites  int
	metadataBlocks int
	appBytes       int64 // bytes the application asked to persist
	blockBytes     int64 // bytes actually sent to the block layer
}

type file struct {
	base    uint64 // sectors
	sectors uint64 // capacity in sectors (extent)
	size    int64  // logical size in bytes
	// dirty data blocks awaiting fsync (ordered mode flushes them first).
	dirtyData []trace.Request
	// dirtyMeta counts metadata blocks (inode/bitmap) to journal on fsync.
	dirtyMeta int
}

// blockSpan returns the first and last block covering [off, off+n) of the
// file, or the extent-overflow error when the range starts before the
// file or ends past its extent, where it would address another file's
// blocks. n is positive.
func (fl *file) blockSpan(name string, off, n int64) (first, last int64, err error) {
	if off < 0 || uint64(off+n+blockBytes-1)/blockBytes*trace.SectorsPerPage > fl.sectors {
		return 0, 0, fmt.Errorf("androidstack: %s extent overflow", name)
	}
	return off / blockBytes, (off + n - 1) / blockBytes, nil
}

// NewFS builds a file system over the sink. The journal occupies a 128 MB
// region, as Ext4's default journal does on a 32 GB partition.
func NewFS(sink Sink) *FS {
	return &FS{
		sink:         sink,
		journalStart: uint64(1) << 30 / trace.SectorSize,
		journalLen:   uint64(128) << 20 / trace.SectorSize,
		nextAlloc:    uint64(2) << 30 / trace.SectorSize,
		files:        make(map[string]*file),
		cache:        newPageCache(64 << 20), // a 64 MB page cache
	}
}

// errMissing and errBadLen keep the cached-read path's errors consistent
// with the rest of the file-system API.
func errMissing(name string) error { return fmt.Errorf("androidstack: %s missing", name) }
func errBadLen() error             { return fmt.Errorf("androidstack: non-positive read") }

// SetTime advances the stack clock (application think time).
func (f *FS) SetTime(now int64) {
	if now > f.now {
		f.now = now
	}
}

// Now returns the current stack clock.
func (f *FS) Now() int64 { return f.now }

// Stats summarizes file-system activity.
type FSStats struct {
	DataWrites     int
	JournalWrites  int
	MetadataBlocks int
	AppBytes       int64
	BlockBytes     int64
}

// WriteAmplification returns block bytes over application bytes.
func (s FSStats) WriteAmplification() float64 {
	if s.AppBytes == 0 {
		return 0
	}
	return float64(s.BlockBytes) / float64(s.AppBytes)
}

// Stats returns accumulated statistics.
func (f *FS) Stats() FSStats {
	return FSStats{f.dataWrites, f.journalWrites, f.metadataBlocks, f.appBytes, f.blockBytes}
}

// Create makes an empty file with a 16 MB extent.
func (f *FS) Create(name string) error {
	if _, ok := f.files[name]; ok {
		return fmt.Errorf("androidstack: %s exists", name)
	}
	ext := uint64(16) << 20 / trace.SectorSize
	f.files[name] = &file{base: f.nextAlloc, sectors: ext, dirtyMeta: 1}
	f.nextAlloc += ext
	return nil
}

// Exists reports whether the file exists.
func (f *FS) Exists(name string) bool {
	_, ok := f.files[name]
	return ok
}

// Delete removes a file; the directory/inode update is journaled metadata.
func (f *FS) Delete(name string) error {
	fl, ok := f.files[name]
	if !ok {
		return fmt.Errorf("androidstack: %s missing", name)
	}
	// Dirty metadata from the doomed file still needs a journal commit;
	// fold it into an immediate metadata-only commit.
	delete(f.files, name)
	_ = fl
	if f.cache != nil {
		f.cache.invalidateFile(name)
	}
	return f.commitJournal(1)
}

// Size returns the file's logical size.
func (f *FS) Size(name string) int64 {
	if fl, ok := f.files[name]; ok {
		return fl.size
	}
	return 0
}

// Write buffers a write of n bytes at off. Data lands in the page cache;
// block requests are emitted at fsync (ordered mode) — matching how SQLite
// drives durability.
func (f *FS) Write(name string, off, n int64) error {
	fl, ok := f.files[name]
	if !ok {
		return fmt.Errorf("androidstack: %s missing", name)
	}
	if n <= 0 {
		return fmt.Errorf("androidstack: non-positive write")
	}
	first, last, err := fl.blockSpan(name, off, n)
	if err != nil {
		return err
	}
	f.appBytes += n
	blocks := last - first + 1
	req := trace.Request{
		LBA:  fl.base + uint64(first)*trace.SectorsPerPage,
		Size: uint32(blocks * blockBytes),
		Op:   trace.Write,
	}
	fl.dirtyData = append(fl.dirtyData, req)
	if f.cache != nil {
		for b := first; b <= last; b++ {
			f.cache.fill(name, b)
		}
	}
	if off+n > fl.size {
		fl.size = off + n
		fl.dirtyMeta = 1 // size change dirties the inode
	}
	return nil
}

// Read emits a read covering [off, off+n).
func (f *FS) Read(name string, off, n int64) error {
	fl, ok := f.files[name]
	if !ok {
		return fmt.Errorf("androidstack: %s missing", name)
	}
	if n <= 0 {
		return fmt.Errorf("androidstack: non-positive read")
	}
	first, last, err := fl.blockSpan(name, off, n)
	if err != nil {
		return err
	}
	blocks := last - first + 1
	return f.emit(trace.Request{
		LBA:  fl.base + uint64(first)*trace.SectorsPerPage,
		Size: uint32(blocks * blockBytes),
		Op:   trace.Read,
	})
}

// Fsync forces the file durable: ordered mode writes the dirty data blocks
// first, then a journal transaction (descriptor + metadata + commit).
func (f *FS) Fsync(name string) error {
	fl, ok := f.files[name]
	if !ok {
		return fmt.Errorf("androidstack: %s missing", name)
	}
	for _, req := range fl.dirtyData {
		if err := f.emit(req); err != nil {
			return err
		}
		f.dataWrites++
	}
	fl.dirtyData = fl.dirtyData[:0]
	meta := fl.dirtyMeta
	fl.dirtyMeta = 0
	return f.commitJournal(meta)
}

// commitJournal emits one journal transaction: a descriptor block, the
// journaled metadata blocks, and a commit block — all sequential inside the
// journal region (this sequential journal traffic is a visible source of
// the traces' spatial locality).
func (f *FS) commitJournal(metaBlocks int) error {
	if metaBlocks < 1 {
		metaBlocks = 1
	}
	blocks := 1 + metaBlocks + 1
	for i := 0; i < blocks; i++ {
		if f.journalPtr+trace.SectorsPerPage > f.journalLen {
			f.journalPtr = 0
		}
		req := trace.Request{
			LBA:  f.journalStart + f.journalPtr,
			Size: blockBytes,
			Op:   trace.Write,
		}
		f.journalPtr += trace.SectorsPerPage
		if err := f.emit(req); err != nil {
			return err
		}
		f.journalWrites++
	}
	f.metadataBlocks += metaBlocks
	return nil
}

func (f *FS) emit(req trace.Request) error {
	f.now += syscallNs
	req.Arrival = f.now
	f.blockBytes += int64(req.Size)
	return f.sink.Submit(req)
}
