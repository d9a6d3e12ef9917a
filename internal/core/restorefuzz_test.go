package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// smallDevicePayload ages a shrunk device of the backend with a few writes
// (UFS keeps them in its booster) and returns its snapshot payload.
func smallDevicePayload(tb testing.TB, backend storage.Backend) []byte {
	tb.Helper()
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	opt.ScaleBlocks = 256
	opt.ScalePages = 64
	opt.UFSBoosterBytes = 1 << 20
	dev, err := core.NewDevice(core.SchemeHPS, opt)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := dev.Submit(trace.Request{Arrival: int64(i) * 1e6, LBA: uint64(i) * 64, Size: 12288, Op: trace.Write}); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := dev.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// payloadLayout locates the fields of a version-2 payload (the layout in
// internal/storage/seal.go) that the hostile cases edit.
type payloadLayout struct {
	config   map[string]any
	firstLPN int // first LPN of the first programmed page with one (0: none)
	written  int // plane 0 pool 0's written-block count
	runs     int // plane 0 pool 0's free-list run count
	rrPlane  int // the stripe cursor
	faults   int // the fault stream's presence byte
	staged   int // the staged-chunk count
}

func layoutOf(tb testing.TB, payload []byte, backend storage.Backend) payloadLayout {
	tb.Helper()
	le := binary.LittleEndian
	n := int(le.Uint32(payload))
	l := payloadLayout{}
	if err := json.Unmarshal(payload[4:4+n], &l.config); err != nil {
		tb.Fatal(err)
	}
	var cfg struct {
		Geometry   struct{ Channels, ChipsPerChannel, DiesPerChip, PlanesPerDie int }
		Pools      []struct{ PageBytes int }
		Queues     int
		QueueDepth int
	}
	if err := json.Unmarshal(payload[4:4+n], &cfg); err != nil {
		tb.Fatal(err)
	}
	g := cfg.Geometry
	planes := g.Channels * g.ChipsPerChannel * g.DiesPerChip * g.PlanesPerDie
	at := 4 + n + 8 // config, then eMMC's free-at
	if backend == storage.BackendUFS {
		at = 4 + n + 8*cfg.Queues*cfg.QueueDepth
	}
	at += 13*8 + 8*len(cfg.Pools)
	for p := 0; p < planes*len(cfg.Pools); p++ {
		if p == 0 {
			l.runs = at + 4
		}
		at += 4
		at += 4 + 8*int(le.Uint32(payload[at:]))
		if p == 0 {
			l.written = at
		}
		blocks := int(le.Uint32(payload[at:]))
		at += 4
		for b := 0; b < blocks; b++ {
			ptr := int(le.Uint32(payload[at+8:]))
			at += 4 + 9
			for page := 0; page < ptr; page++ {
				k := int(payload[at])
				if k > 0 && l.firstLPN == 0 {
					l.firstLPN = at + 1
				}
				at += 1 + 4*k
			}
		}
	}
	l.rrPlane = at + 8
	l.faults = at + 16 + 32*8 + 16*(g.Channels+planes)
	l.staged = l.faults + 1 + 16
	if payload[l.faults] == 1 {
		l.staged += 40
	}
	return l
}

// hostileCase is a payload that reached a panic (or left corrupt state, or
// allocated by a claim) before restore validated it.
type hostileCase struct {
	name    string
	backend storage.Backend
	payload []byte
}

func hostileCases(tb testing.TB) []hostileCase {
	em := smallDevicePayload(tb, storage.BackendEMMC)
	uf := smallDevicePayload(tb, storage.BackendUFS)
	edit := func(backend storage.Backend, f func(b []byte, l payloadLayout) []byte) []byte {
		src := em
		if backend == storage.BackendUFS {
			src = uf
		}
		return f(append([]byte(nil), src...), layoutOf(tb, src, backend))
	}
	u32 := func(backend storage.Backend, field func(payloadLayout) int, v uint32) []byte {
		return edit(backend, func(b []byte, l payloadLayout) []byte {
			binary.LittleEndian.PutUint32(b[field(l):], v)
			return b
		})
	}
	// config re-encodes the payload with an edited configuration.
	config := func(backend storage.Backend, f func(map[string]any)) []byte {
		return edit(backend, func(b []byte, l payloadLayout) []byte {
			f(l.config)
			js, err := json.Marshal(l.config)
			if err != nil {
				tb.Fatal(err)
			}
			out := binary.LittleEndian.AppendUint32(nil, uint32(len(js)))
			return append(append(out, js...), b[4+binary.LittleEndian.Uint32(b):]...)
		})
	}
	pool0 := func(c map[string]any) map[string]any { return c["Pools"].([]any)[0].(map[string]any) }
	return []hostileCase{
		{"config-json", storage.BackendEMMC, edit(storage.BackendEMMC, func(b []byte, _ payloadLayout) []byte { b[4] = 'x'; return b })},
		{"config-length-2^31", storage.BackendUFS, u32(storage.BackendUFS, func(payloadLayout) int { return 0 }, 1<<31)},
		{"blocks-2^31", storage.BackendEMMC, config(storage.BackendEMMC, func(c map[string]any) { pool0(c)["BlocksPerPlane"] = 1 << 31 })},
		{"blocks-2^24", storage.BackendUFS, config(storage.BackendUFS, func(c map[string]any) { pool0(c)["BlocksPerPlane"] = 1 << 24 })},
		{"pages-2^31", storage.BackendUFS, config(storage.BackendUFS, func(c map[string]any) { pool0(c)["PagesPerBlock"] = 1 << 31 })},
		{"planes-2^31", storage.BackendEMMC, config(storage.BackendEMMC, func(c map[string]any) {
			c["Geometry"].(map[string]any)["Channels"] = 1 << 31
		})},
		{"slots-2^31", storage.BackendUFS, config(storage.BackendUFS, func(c map[string]any) { c["QueueDepth"] = 1 << 31 })},
		{"written-blocks-2^31", storage.BackendEMMC, u32(storage.BackendEMMC, func(l payloadLayout) int { return l.written }, 1<<31)},
		{"free-runs-2^31", storage.BackendUFS, u32(storage.BackendUFS, func(l payloadLayout) int { return l.runs }, 1<<31)},
		{"staged-chunks-2^31", storage.BackendUFS, u32(storage.BackendUFS, func(l payloadLayout) int { return l.staged }, 1<<31)},
		{"page-lpn-2^31", storage.BackendEMMC, u32(storage.BackendEMMC, func(l payloadLayout) int { return l.firstLPN }, 1<<31)},
		{"page-lpn-past-max", storage.BackendEMMC, u32(storage.BackendEMMC, func(l payloadLayout) int { return l.firstLPN }, ftl.MaxLPN)},
		{"staged-lpn-range", storage.BackendUFS, u32(storage.BackendUFS, func(l payloadLayout) int { return l.staged + 6 }, ftl.MaxLPN)},
		{"staged-overfull", storage.BackendUFS, edit(storage.BackendUFS, func(b []byte, l payloadLayout) []byte { b[l.staged+5] = 3; return b })},
		{"staged-pool", storage.BackendUFS, edit(storage.BackendUFS, func(b []byte, l payloadLayout) []byte { b[l.staged+4] = 9; return b })},
		{"fault-flag", storage.BackendEMMC, edit(storage.BackendEMMC, func(b []byte, l payloadLayout) []byte { b[l.faults] = 1; return b })},
		{"stripe-cursor-negative", storage.BackendEMMC, edit(storage.BackendEMMC, func(b []byte, l payloadLayout) []byte {
			binary.LittleEndian.PutUint64(b[l.rrPlane:], ^uint64(2))
			return b
		})},
		// A transfer cost whose product overflows sim time once panicked
		// the first non-interleaved write after restore.
		{"transfer-cost-overflow", storage.BackendEMMC, config(storage.BackendEMMC, func(c map[string]any) {
			c["Timing"].(map[string]any)["TransferNsPerByte"] = 4e39
		})},
		{"truncated", storage.BackendUFS, uf[:len(uf)/2]},
		{"trailing", storage.BackendEMMC, append(append([]byte(nil), em...), 0)},
	}
}

// TestRestoreRejectsHostileSeals: each hand-built defect restores to a
// one-line error, never a panic or a device, and a claimed count the
// geometry or the bytes cannot back is refused before anything is sized
// by it.
func TestRestoreRejectsHostileSeals(t *testing.T) {
	for _, c := range hostileCases(t) {
		sealed, _, err := storage.SealPayload(c.backend, c.payload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = core.RestoreSealed(c.name, bytes.NewReader(sealed))
		runtime.ReadMemStats(&after)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: restore = %v, want a one-line error", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("%s: restore allocated %d bytes before refusing", c.name, grew)
		}
	}
}

// FuzzRestoreSealed: any payload, sealed with a valid digest (which an
// uploader can always compute) as version 2 or as a version-1 gob payload,
// restores to a device or a one-line error, never a panic; a device it
// does restore survives a short replay with a flush and a re-seal.
func FuzzRestoreSealed(f *testing.F) {
	f.Add(false, false, smallDevicePayload(f, storage.BackendEMMC))
	f.Add(true, false, smallDevicePayload(f, storage.BackendUFS))
	for _, c := range hostileCases(f) {
		f.Add(c.backend == storage.BackendUFS, false, c.payload)
	}
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendUFS} {
		info, payload, err := storage.ReadSeal(bytes.NewReader(readV1Seal(f, backend)), "")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(info.Backend == storage.BackendUFS, true, payload)
	}
	f.Fuzz(func(t *testing.T, isUFS, v1 bool, payload []byte) {
		backend := storage.BackendEMMC
		if isUFS {
			backend = storage.BackendUFS
		}
		sealed, _, err := storage.SealPayload(backend, payload)
		if err != nil {
			t.Fatal(err)
		}
		if v1 {
			sealed[8] = 1 // the envelope's payload version; the digest covers the payload only
		}
		dev, _, err := core.RestoreSealed("fuzz", bytes.NewReader(sealed))
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line restore error: %q", err)
			}
			return
		}
		at := dev.LastActivity()
		for i, op := range []trace.Op{trace.Write, trace.Read, trace.Write, trace.Read} {
			at += 1e6
			if _, err := dev.Submit(trace.Request{Arrival: at, LBA: uint64(i) * 8, Size: 8192, Op: op}); err != nil {
				return
			}
		}
		if _, err := dev.Flush(at + 1); err != nil {
			return
		}
		_, _, _ = storage.Seal(dev)
	})
}
