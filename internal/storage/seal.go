package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
)

// A sealed snapshot wraps a Device.Snapshot payload in a self-describing
// envelope, so a restore can dispatch on the backend that wrote it and
// verify the bytes before any decoder sees them: corruption and truncation
// become one-line diagnostics naming the device id and the byte offset.
//
// Envelope (integers big-endian):
//
//	offset 0   8 bytes  magic "EMSEAL1\n"
//	offset 8   1 byte   payload version (2; 1 is still read)
//	offset 9   1 byte   backend name length n
//	offset 10  n bytes  backend name ("emmc", "sd", "ufs")
//	10+n       8 bytes  payload length
//	18+n       payload  the backend's Snapshot bytes
//	18+n+len   32 bytes SHA-256 of the payload
//
// The payload digest is the snapshot's content address: identical device
// state seals to identical bytes, so a content-addressed store dedups
// forks of the same aged device for free.
//
// Version 2 payloads are little-endian, each model layer writing and
// reading its own part, in this order:
//
//	config     uint32 length, then the device Config as JSON (encoding/json
//	           sorts map keys, so equal configurations encode equally)
//	front end  eMMC: free-at int64; UFS: a free-at int64 per command slot
//	FTL        statistics, per-pool erase totals, and per plane-pool the
//	           active block, the free list as runs, and each written or
//	           erased block: its flash header (erase count, write pointer,
//	           retired flag) and, per programmed page, its live-LPN list
//	           (internal/ftl/snapshot.go)
//	back end   last-end and stripe-cursor int64s, the Metrics as int64s,
//	           free-at and busy int64s per channel then per plane, the
//	           fault stream (a presence byte, then the four xoshiro256**
//	           state words and the lifetime draw count), and the staged
//	           writes (hit and miss int64s, a uint32 chunk count, per chunk
//	           a uint8 pool, a uint8 length and that many uint32 LPNs)
//
// Counts the configuration implies (channels, planes, pools, blocks,
// slots) are not stored. Every stored count is checked against the
// geometry and against the bytes left before it sizes anything, and a
// restore reads the payload once, front to back, refusing trailing bytes.
// Blocks never written cost nothing, so a payload grows with what was
// written, not with capacity.
//
// Version 1 payloads are gob streams. They stay readable: core's frozen v1
// reader transcodes one to version 2, fast-forwarding the fault stream by
// its archived draw count (capped at faults.MaxSkip), and restores that.
// A v1 seal keeps its id, the digest of its gob payload, so stored objects
// still resolve; sealing the restored device writes version 2 under a new
// id. Ids changed once, with the layout: the same state sealed by a
// version-1 and a version-2 build has two ids.

// sealMagic opens every sealed snapshot; sealVersion is the payload
// version Seal writes.
var sealMagic = [8]byte{'E', 'M', 'S', 'E', 'A', 'L', '1', '\n'}

const sealVersion = 2

// sealDigestLen is the trailing SHA-256 length.
const sealDigestLen = sha256.Size

// sealPrealloc caps the payload buffer ReadSeal sizes up front from the
// claimed length; past it the buffer grows with the bytes read.
const sealPrealloc = 1 << 20

// SealInfo describes a sealed snapshot without decoding its payload.
type SealInfo struct {
	// Backend names the device implementation that wrote the payload; a
	// restore dispatches on it instead of trusting the caller.
	Backend Backend
	// Digest is the hex SHA-256 of the payload — the snapshot's content
	// address.
	Digest string
	// PayloadBytes is the payload length.
	PayloadBytes int64
	// Version is the payload version: 2 for a Seal of this build, 1 for a
	// gob payload sealed before.
	Version int
}

// Seal archives dev's snapshot inside the sealed envelope and returns the
// sealed bytes plus their description. The payload is buffered to compute
// the digest; device snapshots grow with what was written, so the copy is
// cheap next to the replay that produced the state.
func Seal(dev Device) ([]byte, SealInfo, error) {
	var payload bytes.Buffer
	if err := dev.Snapshot(&payload); err != nil {
		return nil, SealInfo{}, err
	}
	backend := dev.Caps().Backend
	return SealPayload(backend, payload.Bytes())
}

// SealPayload wraps an already-encoded version-2 snapshot payload for
// backend in the sealed envelope.
func SealPayload(backend Backend, payload []byte) ([]byte, SealInfo, error) {
	name := string(backend)
	if name == "" {
		name = string(BackendEMMC)
	}
	if len(name) > 255 {
		return nil, SealInfo{}, fmt.Errorf("storage: backend name %q too long to seal", name)
	}
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(sealMagic)+2+len(name)+8+len(payload)+sealDigestLen)
	out = append(out, sealMagic[:]...)
	out = append(out, sealVersion, byte(len(name)))
	out = append(out, name...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = append(out, sum[:]...)
	return out, SealInfo{
		Backend:      Backend(name),
		Digest:       hex.EncodeToString(sum[:]),
		PayloadBytes: int64(len(payload)),
		Version:      sealVersion,
	}, nil
}

// ReadSeal parses and verifies a sealed snapshot stream, returning its
// description and the verified payload. id names the device in
// diagnostics ("" reads as "snapshot"): truncation reports the byte offset
// where the stream ended, a digest mismatch reports the payload byte range
// and both digests — one line each, before any payload decoding runs.
func ReadSeal(r io.Reader, id string) (SealInfo, []byte, error) {
	if id == "" {
		id = "snapshot"
	}
	var off int64
	need := func(buf []byte, what string) error {
		n, err := io.ReadFull(r, buf)
		off += int64(n)
		if err != nil {
			return fmt.Errorf("storage: %s: sealed snapshot truncated at byte %d reading %s: %w", id, off, what, err)
		}
		return nil
	}

	var head [10]byte // magic + version + backend length
	if err := need(head[:], "header"); err != nil {
		return SealInfo{}, nil, err
	}
	if !bytes.Equal(head[:8], sealMagic[:]) {
		return SealInfo{}, nil, fmt.Errorf("storage: %s: not a sealed snapshot (bad magic at byte 0)", id)
	}
	if head[8] != 1 && head[8] != sealVersion {
		return SealInfo{}, nil, fmt.Errorf("storage: %s: sealed snapshot version %d (want 1 or %d)", id, head[8], sealVersion)
	}
	name := make([]byte, int(head[9]))
	if err := need(name, "backend name"); err != nil {
		return SealInfo{}, nil, err
	}
	backend, err := ParseBackend(string(name))
	if err != nil {
		return SealInfo{}, nil, fmt.Errorf("storage: %s: sealed snapshot names %w", id, err)
	}

	var lenBuf [8]byte
	if err := need(lenBuf[:], "payload length"); err != nil {
		return SealInfo{}, nil, err
	}
	payloadLen := binary.BigEndian.Uint64(lenBuf[:])
	const maxPayload = 1 << 32 // 4 GiB: far above any real snapshot, below a corrupt length
	if payloadLen > maxPayload {
		return SealInfo{}, nil, fmt.Errorf("storage: %s: sealed snapshot claims %d payload bytes (corrupt length at byte %d)", id, payloadLen, off-8)
	}

	// A corrupt or hostile length costs what the stream actually delivers,
	// not what it claims: the buffer starts at what the reader reports it
	// holds (a *bytes.Reader knows), or at sealPrealloc, and grows only as
	// payload bytes arrive.
	payloadStart := off
	hint := uint64(sealPrealloc)
	if l, ok := r.(interface{ Len() int }); ok {
		hint = uint64(l.Len())
	}
	payload := make([]byte, 0, min(payloadLen, hint))
	for uint64(len(payload)) < payloadLen {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, int(min(payloadLen-uint64(len(payload)), uint64(max(cap(payload), 4096)))))
		}
		if err := need(payload[len(payload):min(uint64(cap(payload)), payloadLen)], "payload"); err != nil {
			return SealInfo{}, nil, err
		}
		payload = payload[:min(uint64(cap(payload)), payloadLen)]
	}
	var stored [sealDigestLen]byte
	if err := need(stored[:], "digest"); err != nil {
		return SealInfo{}, nil, err
	}
	sum := sha256.Sum256(payload)
	if sum != stored {
		// Full digests, not prefixes: a flip near the end of the trailer
		// would make truncated digests print identically.
		return SealInfo{}, nil, fmt.Errorf("storage: %s: snapshot payload digest mismatch over bytes %d..%d (stored %x, computed %x)",
			id, payloadStart, payloadStart+int64(payloadLen), stored[:], sum[:])
	}
	return SealInfo{
		Backend:      backend,
		Digest:       hex.EncodeToString(sum[:]),
		PayloadBytes: int64(payloadLen),
		Version:      int(head[8]),
	}, payload, nil
}
