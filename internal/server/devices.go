package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/devstore"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
)

// The /v1/devices surface: a content-addressed archive of pre-aged device
// snapshots. A device is aged once — an "age" job replays a prep workload
// onto fresh flash and seals the result into the store — and every replay
// or sweep that wants a worn device forks the archived snapshot via
// from_device instead of re-aging (restore is a gob decode; re-aging is a
// full replay).
//
//	POST   /v1/devices               age (JSON AgeSpec) or import (octet-stream)
//	GET    /v1/devices               list archived snapshots, most recent first
//	GET    /v1/devices/{id}          one snapshot's metadata
//	GET    /v1/devices/{id}/snapshot the sealed bytes (for emmcc pre-push)
//	GET    /v1/devices/{id}/forks    jobs that forked this device
//	DELETE /v1/devices/{id}          evict a snapshot
//
// The surface is optional: without Config.DeviceStore every endpoint (and
// from_device on replay/sweep specs) answers 503 unavailable.

// maxImportBytes bounds an uploaded snapshot. Sealed device snapshots are
// megabytes; a gigabyte is far beyond any real device state.
const maxImportBytes = 1 << 30

// AgeSpec asks the server to age a device: replay the embedded spec's
// workload on a fresh device and archive the sealed result. It is a
// ReplaySpec restricted to one concrete scheme (the snapshot records which)
// plus an optional store label.
type AgeSpec struct {
	cliutil.ReplaySpec
	// Label optionally names the archived snapshot ("aged-twitter-8x").
	// Labels are unique per store.
	Label string `json:"label,omitempty"`
}

// DeviceStatus is the wire form of an archived snapshot, served by the
// /v1/devices endpoints and returned as an age job's result.
type DeviceStatus struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	Backend string `json:"backend"`
	// Scheme is the partition scheme the device was aged under ("" for raw
	// imports) — the one a from_device job must ask for.
	Scheme    string `json:"scheme,omitempty"`
	Digest    string `json:"digest"`
	SizeBytes int64  `json:"size_bytes"`
	Created   string `json:"created"`
	Origin    string `json:"origin"`
	// FaultDraws is the archived fault injector position; a fork resumes
	// from exactly this draw.
	FaultDraws int64 `json:"fault_draws"`
	// Wear summarizes each flash pool's erase distribution at seal time.
	Wear []ftl.WearSummary `json:"wear,omitempty"`
	// resourceLinks carries the snapshot/forks URLs (flattened).
	resourceLinks
}

// deviceStatus renders a store record for the wire.
func deviceStatus(m devstore.Meta) DeviceStatus {
	return DeviceStatus{
		ID:            m.ID,
		Label:         m.Label,
		Backend:       string(m.Backend),
		Scheme:        m.Scheme,
		Digest:        m.Digest,
		SizeBytes:     m.SizeBytes,
		Created:       time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339),
		Origin:        m.Origin,
		FaultDraws:    m.FaultDraws,
		Wear:          m.Wear,
		resourceLinks: deviceLinks(m.ID),
	}
}

// deviceWear collects every pool's wear summary from a live device.
func deviceWear(dev storage.Device) []ftl.WearSummary {
	pools := dev.Pools()
	out := make([]ftl.WearSummary, len(pools))
	for i := range pools {
		out[i] = dev.Wear(i)
	}
	return out
}

// deviceStore returns the configured snapshot store, answering 503 when the
// surface is disabled.
func (s *Server) deviceStore(w http.ResponseWriter) (*devstore.Store, bool) {
	if s.cfg.DeviceStore == nil {
		writeError(w, http.StatusServiceUnavailable, ErrKindUnavailable,
			errors.New("no device store configured (start emmcd with -device-store)"))
		return nil, false
	}
	return s.cfg.DeviceStore, true
}

// resolveFromDevice checks a spec's from_device reference at admission, so
// a job forking an unknown snapshot is a synchronous 404 instead of a
// queued job that fails minutes later. On failure the error response has
// already been written.
func (s *Server) resolveFromDevice(w http.ResponseWriter, id string) (devstore.Meta, bool) {
	store, ok := s.deviceStore(w)
	if !ok {
		return devstore.Meta{}, false
	}
	meta, err := store.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, err)
		return devstore.Meta{}, false
	}
	return meta, true
}

// handleDeviceCreate admits new snapshots in two modes, switched on the
// request content type: application/json is an asynchronous age job
// (replay the AgeSpec's prep workload, seal, archive), and
// application/octet-stream is a synchronous import of already-sealed bytes
// (what emmcc pushes before submitting from_device shards).
func (s *Server) handleDeviceCreate(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.deviceStore(w); !ok {
		return
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		s.importDevice(w, r)
		return
	}
	s.ageDevice(w, r)
}

// importDevice archives uploaded sealed bytes. The upload is restored once
// to harvest the wear and injector metadata the listing shows; a snapshot
// that cannot restore is rejected before it is named.
func (s *Server) importDevice(w http.ResponseWriter, r *http.Request) {
	sealed, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation,
			fmt.Errorf("reading snapshot upload: %w", err))
		return
	}
	label := r.URL.Query().Get("label")
	dev, _, err := core.RestoreSealed("import", bytes.NewReader(sealed))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	meta, err := s.cfg.DeviceStore.Put(sealed, devstore.Meta{
		Label:      label,
		Origin:     "imported",
		FaultDraws: dev.FaultDraws(),
		Wear:       deviceWear(dev),
	})
	if err != nil {
		if errors.Is(err, devstore.ErrLabelConflict) {
			writeError(w, http.StatusConflict, ErrKindConflict, err)
			return
		}
		writeError(w, http.StatusInternalServerError, ErrKindInternal, err)
		return
	}
	s.log.Info("device imported", "device", meta.ID, "label", meta.Label,
		"backend", meta.Backend, "bytes", meta.SizeBytes, "req", requestID(r.Context()))
	writeJSON(w, http.StatusCreated, deviceStatus(meta))
}

// ageDevice admits an asynchronous age job. Label conflicts are not checked
// here: aging the same prep again produces the same content hash, and the
// store's idempotent Put resolves that case without a rejection.
func (s *Server) ageDevice(w http.ResponseWriter, r *http.Request) {
	var spec AgeSpec
	if err := decodeStrict(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	if err := spec.Validate(s.cfg.Registry); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	if spec.FromDevice != "" {
		writeError(w, http.StatusBadRequest, ErrKindValidation,
			errors.New("an age job builds a fresh device; from_device is not allowed here"))
		return
	}
	schemes, err := spec.Schemes()
	if err == nil && len(schemes) != 1 {
		err = fmt.Errorf("aging requires one concrete scheme (the snapshot records it), got %q", spec.Scheme)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	backend, err := spec.Backend()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	j, err := s.enqueue(r.Context(), "age", string(backend), "", s.ageJob(spec, schemes[0]))
	if err != nil {
		s.submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitted{ID: j.id, State: JobQueued, URL: "/v1/jobs/" + j.id})
}

// ageJob is the work function behind an age submission: fresh device, full
// prep replay, seal, archive. Its result is the archived DeviceStatus, so
// polling the job yields the device id to fork.
func (s *Server) ageJob(spec AgeSpec, scheme core.Scheme) jobFunc {
	return func(ctx context.Context, reg *telemetry.Registry, tc *telemetry.Tracer) (any, error) {
		p, err := spec.Profile(s.cfg.Registry)
		if err != nil {
			return nil, err
		}
		opt, err := spec.DeviceOptions()
		if err != nil {
			return nil, err
		}
		dev, err := core.NewDevice(scheme, opt)
		if err != nil {
			return nil, err
		}
		st := spec.PrepareStream(p.Stream(spec.Seed))
		if _, err := core.Replay(ctx, dev, scheme, st, core.ReplayOpts{Registry: reg, Tracer: tc}); err != nil {
			return nil, fmt.Errorf("aging %s: %w", spec.App, err)
		}
		sealed, _, err := storage.Seal(dev)
		if err != nil {
			return nil, err
		}
		meta, err := s.cfg.DeviceStore.Put(sealed, devstore.Meta{
			Label:      spec.Label,
			Scheme:     scheme.String(),
			Origin:     "aged",
			FaultDraws: dev.FaultDraws(),
			Wear:       deviceWear(dev),
		})
		if err != nil {
			return nil, err
		}
		s.log.Info("device aged", "device", meta.ID, "label", meta.Label,
			"app", spec.App, "sessions", spec.Sessions, "bytes", meta.SizeBytes)
		return deviceStatus(meta), nil
	}
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	store, ok := s.deviceStore(w)
	if !ok {
		return
	}
	metas := store.List()
	list := make([]DeviceStatus, 0, len(metas))
	for _, m := range metas {
		list = append(list, deviceStatus(m))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	store, ok := s.deviceStore(w)
	if !ok {
		return
	}
	meta, err := store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, deviceStatus(meta))
}

// handleDeviceSnapshot streams the sealed snapshot bytes — the transport
// half of emmcc's pre-push: a coordinator downloads from one worker (or its
// local store) and re-imports into workers that lack the device.
func (s *Server) handleDeviceSnapshot(w http.ResponseWriter, r *http.Request) {
	store, ok := s.deviceStore(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	sealed, err := store.OpenDevice(id)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(sealed)))
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.emseal", id))
	w.Write(sealed) //nolint:errcheck // streaming body
}

// handleDeviceForks lists the jobs that forked this device, oldest first —
// the "what ran on this worn state" audit view.
func (s *Server) handleDeviceForks(w http.ResponseWriter, r *http.Request) {
	store, ok := s.deviceStore(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if _, err := store.Get(id); err != nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, err)
		return
	}
	s.mu.Lock()
	snap := make([]*job, 0)
	for _, j := range s.jobs {
		if j.fromDevice == id {
			snap = append(snap, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(snap, func(i, k int) bool { return snap[i].seq < snap[k].seq })
	list := make([]JobStatus, 0, len(snap))
	for _, j := range snap {
		list = append(list, j.status())
	}
	writeJSON(w, http.StatusOK, list)
}

// handleDeviceDelete evicts a snapshot. Jobs already forked from it keep
// running (they hold their own restored copies); only future from_device
// references fail.
func (s *Server) handleDeviceDelete(w http.ResponseWriter, r *http.Request) {
	store, ok := s.deviceStore(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	meta, err := store.Get(id)
	if err == nil {
		err = store.Delete(id)
	}
	if err != nil {
		if errors.Is(err, devstore.ErrNotFound) {
			writeError(w, http.StatusNotFound, ErrKindNotFound, err)
		} else {
			writeError(w, http.StatusInternalServerError, ErrKindInternal, err)
		}
		return
	}
	s.log.Info("device deleted", "device", id, "label", meta.Label,
		"req", requestID(r.Context()))
	writeJSON(w, http.StatusOK, deviceStatus(meta))
}
