// Package devstore is the content-addressed device snapshot store behind
// emmcd's /v1/devices surface and emmcc's pre-push path. A device is aged
// once — a prep workload replayed onto fresh flash — and the sealed
// snapshot (internal/storage's self-describing envelope) is archived under
// its content hash. Every job that wants a worn device then *forks* the
// archived snapshot instead of re-aging: restore is one linear scan of the
// snapshot, re-aging is a full replay, and the paper's aging studies (§V)
// need many worn devices that differ only in what happens after the wear.
//
// Layout on disk:
//
//	dir/objects/<id>   sealed snapshot bytes (storage.Seal envelope)
//	dir/meta/<id>.json metadata sidecar (Meta)
//
// where <id> is "d" + the first 12 hex digits of the payload's SHA-256.
// Content addressing makes Put idempotent — aging the same prep twice
// yields the same id — and relies on snapshots being byte-deterministic
// (the hand-written little-endian layout in internal/storage/seal.go).
//
// The store is size- and count-capped with LRU eviction: access order is
// seeded from object file mtimes at Open and refreshed with os.Chtimes on
// every read, so recency survives restarts without a journal.
package devstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"emmcio/internal/ftl"
	"emmcio/internal/storage"
)

// ErrNotFound reports an id with no archived snapshot. Callers map it to
// their own not-found surface (the server's 404, the CLI's exit message).
var ErrNotFound = errors.New("devstore: unknown device")

// ErrLabelConflict reports an import whose label already names a different
// snapshot (the server's 409).
var ErrLabelConflict = errors.New("devstore: label conflict")

// IDPrefixLen is how many digest hex digits make up a device id (after the
// leading "d"). 48 bits of content hash: collisions would need billions of
// distinct snapshots, and Put still verifies the full digest.
const IDPrefixLen = 12

// IDFromDigest derives the device id from a full hex content digest.
func IDFromDigest(digest string) string {
	if len(digest) < IDPrefixLen {
		return "d" + digest
	}
	return "d" + digest[:IDPrefixLen]
}

// Meta is the sidecar record for one archived snapshot — everything a
// caller can learn about a device without restoring it.
type Meta struct {
	// ID is the content-derived identifier ("d" + digest prefix).
	ID string `json:"id"`
	// Label is an optional human name ("aged-movie-1x"). Labels are unique
	// per store; importing a different snapshot under a taken label is a
	// conflict.
	Label string `json:"label,omitempty"`
	// Backend names the device implementation sealed inside.
	Backend storage.Backend `json:"backend"`
	// Scheme records the partition scheme the device was aged under, when
	// known ("" for raw imports).
	Scheme string `json:"scheme,omitempty"`
	// Digest is the full hex SHA-256 of the snapshot payload.
	Digest string `json:"digest"`
	// SizeBytes is the sealed envelope's on-disk size.
	SizeBytes int64 `json:"size_bytes"`
	// CreatedUnix is when the snapshot entered the store.
	CreatedUnix int64 `json:"created_unix"`
	// FaultDraws is the archived fault injector stream position — the
	// fork-determinism witness (a fork resumes from exactly this draw).
	FaultDraws int64 `json:"fault_draws"`
	// Origin is "aged" (produced by an age job) or "imported" (uploaded).
	Origin string `json:"origin"`
	// Wear summarizes each flash pool's erase distribution at seal time.
	Wear []ftl.WearSummary `json:"wear,omitempty"`
}

// Options bound the store. Zero values mean unlimited.
type Options struct {
	// MaxBytes caps the sum of sealed object sizes; LRU entries are evicted
	// to make room for a Put.
	MaxBytes int64
	// MaxEntries caps the number of archived snapshots.
	MaxEntries int
}

// Store is a content-addressed, LRU-evicting snapshot archive rooted at a
// directory. All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu    sync.Mutex
	metas map[string]Meta
	// access orders ids least- to most-recently used.
	access []string
	bytes  int64
}

// Open loads (or initializes) a store rooted at dir. Existing objects are
// indexed and their LRU order recovered from file modification times.
func Open(dir string, opt Options) (*Store, error) {
	for _, sub := range []string{"objects", "meta"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("devstore: creating %s: %w", sub, err)
		}
	}
	s := &Store{dir: dir, opt: opt, metas: map[string]Meta{}}
	entries, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		return nil, fmt.Errorf("devstore: scanning objects: %w", err)
	}
	type seen struct {
		id    string
		mtime time.Time
	}
	var order []seen
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id := e.Name()
		raw, err := os.ReadFile(s.metaPath(id))
		if err != nil {
			// Object without a sidecar: a crashed writer's leftover. Drop it.
			os.Remove(s.objectPath(id))
			continue
		}
		var m Meta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("devstore: corrupt sidecar for %s: %w", id, err)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("devstore: stat %s: %w", id, err)
		}
		m.SizeBytes = info.Size()
		s.metas[id] = m
		s.bytes += info.Size()
		order = append(order, seen{id: id, mtime: info.ModTime()})
	}
	sort.Slice(order, func(i, j int) bool {
		if !order[i].mtime.Equal(order[j].mtime) {
			return order[i].mtime.Before(order[j].mtime)
		}
		return order[i].id < order[j].id
	})
	for _, o := range order {
		s.access = append(s.access, o.id)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(id string) string { return filepath.Join(s.dir, "objects", id) }
func (s *Store) metaPath(id string) string   { return filepath.Join(s.dir, "meta", id+".json") }

// Put archives a sealed snapshot. The id is derived from the envelope's
// content digest, which Put re-verifies by reading the seal, so a corrupt
// upload is rejected before it is named. Put is idempotent: archiving bytes
// already present refreshes their recency and returns the existing Meta
// (the stored label wins). The caller's meta supplies Label, Scheme and
// Origin; identity fields (ID, Backend, Digest, SizeBytes) are computed.
func (s *Store) Put(sealed []byte, meta Meta) (Meta, error) {
	info, _, err := storage.ReadSeal(bytes.NewReader(sealed), meta.Label)
	if err != nil {
		return Meta{}, err
	}
	id := IDFromDigest(info.Digest)
	meta.ID = id
	meta.Backend = info.Backend
	meta.Digest = info.Digest
	meta.SizeBytes = int64(len(sealed))
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	if meta.Origin == "" {
		meta.Origin = "imported"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.metas[id]; ok {
		s.touchLocked(id)
		return existing, nil
	}
	if other, ok := s.findLabelLocked(meta.Label); ok && meta.Label != "" {
		return Meta{}, fmt.Errorf("%w: %q already names device %s (digest %.12s…)",
			ErrLabelConflict, meta.Label, other.ID, other.Digest)
	}
	if err := s.evictForLocked(int64(len(sealed)), id); err != nil {
		return Meta{}, err
	}
	if err := writeAtomic(s.objectPath(id), sealed, 0o644); err != nil {
		return Meta{}, fmt.Errorf("devstore: writing object %s: %w", id, err)
	}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return Meta{}, err
	}
	if err := writeAtomic(s.metaPath(id), raw, 0o644); err != nil {
		os.Remove(s.objectPath(id))
		return Meta{}, fmt.Errorf("devstore: writing sidecar %s: %w", id, err)
	}
	s.metas[id] = meta
	s.access = append(s.access, id)
	s.bytes += meta.SizeBytes
	return meta, nil
}

// Get returns the metadata for id without touching the object.
func (s *Store) Get(id string) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[id]
	if !ok {
		return Meta{}, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	return m, nil
}

// OpenDevice returns the sealed snapshot bytes for id and marks it
// recently used. It satisfies cliutil.DeviceSource, so a Store can back a
// replay or sweep spec's from_device directly.
func (s *Store) OpenDevice(id string) ([]byte, error) {
	s.mu.Lock()
	if _, ok := s.metas[id]; !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	s.touchLocked(id)
	path := s.objectPath(id)
	s.mu.Unlock()

	sealed, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("devstore: reading %s: %w", id, err)
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	return sealed, nil
}

// List returns all archived snapshots, most recently used first.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.metas))
	for i := len(s.access) - 1; i >= 0; i-- {
		out = append(out, s.metas[s.access[i]])
	}
	return out
}

// FindLabel resolves a label to its snapshot, if any.
func (s *Store) FindLabel(label string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findLabelLocked(label)
}

// Delete removes a snapshot. Deleting an unknown id is ErrNotFound.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.metas[id]; !ok {
		return fmt.Errorf("%w %q", ErrNotFound, id)
	}
	return s.removeLocked(id)
}

// Stats reports the store's current footprint.
func (s *Store) Stats() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.metas), s.bytes
}

func (s *Store) findLabelLocked(label string) (Meta, bool) {
	if label == "" {
		return Meta{}, false
	}
	for _, m := range s.metas {
		if m.Label == label {
			return m, true
		}
	}
	return Meta{}, false
}

func (s *Store) touchLocked(id string) {
	for i, v := range s.access {
		if v == id {
			s.access = append(s.access[:i], s.access[i+1:]...)
			break
		}
	}
	s.access = append(s.access, id)
}

// evictForLocked frees room for incoming bytes, never touching keep.
func (s *Store) evictForLocked(incoming int64, keep string) error {
	overBytes := func() bool {
		return s.opt.MaxBytes > 0 && s.bytes+incoming > s.opt.MaxBytes
	}
	overCount := func() bool {
		return s.opt.MaxEntries > 0 && len(s.metas)+1 > s.opt.MaxEntries
	}
	for overBytes() || overCount() {
		victim := ""
		for _, id := range s.access {
			if id != keep {
				victim = id
				break
			}
		}
		if victim == "" {
			return fmt.Errorf("devstore: snapshot of %d bytes exceeds store capacity (%d bytes / %d entries)",
				incoming, s.opt.MaxBytes, s.opt.MaxEntries)
		}
		if err := s.removeLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) removeLocked(id string) error {
	if err := os.Remove(s.objectPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("devstore: removing %s: %w", id, err)
	}
	os.Remove(s.metaPath(id))
	s.bytes -= s.metas[id].SizeBytes
	delete(s.metas, id)
	for i, v := range s.access {
		if v == id {
			s.access = append(s.access[:i], s.access[i+1:]...)
			break
		}
	}
	return nil
}

// writeAtomic writes data via a temp file + rename so readers never see a
// half-written object and a crash leaves no partial entry under the final
// name.
func writeAtomic(path string, data []byte, mode os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
