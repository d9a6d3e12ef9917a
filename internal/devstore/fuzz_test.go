package devstore_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emmcio/internal/devstore"
	"emmcio/internal/storage"
)

// FuzzOpenSidecar: a metadata sidecar holding any bytes, written as
// meta/<id>.json next to a valid object, never panics Open or the store
// operations after it, and every error is one line.
func FuzzOpenSidecar(f *testing.F) {
	sealed, info, err := storage.SealPayload(storage.BackendEMMC, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	other, _, err := storage.SealPayload(storage.BackendUFS, []byte("other payload"))
	if err != nil {
		f.Fatal(err)
	}
	id := devstore.IDFromDigest(info.Digest)

	dir := f.TempDir()
	s, err := devstore.Open(dir, devstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put(sealed, devstore.Meta{Label: "seed", Scheme: "4PS", Origin: "aged"}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, "meta", id+".json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, s := range []string{"", "{}", "null", "[]", "{\n", `{"id":"dother","label":"other","size_bytes":-1}`,
		`{"label":"x\ny","wear":[{"MinErases":-1,"Blocks":1e400}]}`, `{"backend":"nand","fault_draws":"many"}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, sidecar []byte) {
		dir := t.TempDir()
		for _, sub := range []string{"objects", "meta"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "objects", id), sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "meta", id+".json"), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		oneLine := func(op string, err error) {
			if err != nil && strings.Contains(err.Error(), "\n") {
				t.Fatalf("%s: multi-line error %q", op, err)
			}
		}
		s, err := devstore.Open(dir, devstore.Options{MaxEntries: 1})
		oneLine("Open", err)
		if err != nil {
			return
		}
		for _, m := range s.List() {
			_, _ = s.FindLabel(m.Label)
		}
		_, err = s.Get(id)
		oneLine("Get", err)
		_, err = s.OpenDevice(id)
		oneLine("OpenDevice", err)
		_, err = s.Put(other, devstore.Meta{Label: "seed"}) // evicts, or conflicts on the label
		oneLine("Put", err)
		oneLine("Delete", s.Delete(id))
		s.Stats()
	})
}
