package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/devstore"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/server"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// agedStore builds a local device store holding one worn snapshot and
// returns it with the archived device id.
func agedStore(t *testing.T) (*devstore.Store, string) {
	t.Helper()
	opt := core.CaseStudyOptions()
	opt.Faults = &faults.Config{Seed: 11, Rate: 1}
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	var arrival int64
	for i := 0; i < 48; i++ {
		res, err := dev.Submit(trace.Request{Arrival: arrival, LBA: uint64(i * 64), Size: 16 << 10, Op: trace.Write})
		if err != nil {
			t.Fatal(err)
		}
		arrival = res.Finish
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}
	store, err := devstore.Open(t.TempDir(), devstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Put(sealed, devstore.Meta{Label: "aged", Scheme: "4PS", Origin: "aged"})
	if err != nil {
		t.Fatal(err)
	}
	return store, m.ID
}

// deviceWorker starts a worker with its own (empty) device store.
func deviceWorker(t *testing.T) (*httptestURL, *devstore.Store) {
	t.Helper()
	store, err := devstore.Open(t.TempDir(), devstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newWorker(t, server.Config{DeviceStore: store})
	return &httptestURL{ts.URL}, store
}

// httptestURL keeps deviceWorker's signature readable.
type httptestURL struct{ URL string }

// TestFromDeviceSweepPushesSnapshots: a from_device sweep across a fleet
// whose workers have never seen the device must pre-push the sealed
// snapshot to each worker it routes to, and the merged result must equal
// the single-process run of the same forked spec.
func TestFromDeviceSweepPushesSnapshots(t *testing.T) {
	local, id := agedStore(t)
	spec := cliutil.SweepSpec{
		Sweeps:     []string{"casestudy"},
		Traces:     []string{paper.Idle, paper.CallIn},
		FromDevice: id,
	}
	spec.SetDeviceSource(local)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := localBaseline(t, spec)

	wa, sa := deviceWorker(t)
	wb, sb := deviceWorker(t)
	cfg := fastConfig([]string{wa.URL, wb.URL})
	cfg.DisableLocal = true // success must come through the fleet
	c := New(cfg)
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("forked fleet sweep diverged from single-process run:\n got %s\nwant %s", got, want)
	}

	st := counters(c)
	pushes := st["coord_device_pushes_total"]
	if pushes < 1 || pushes > 2 {
		t.Errorf("device pushes = %d, want 1..2 (once per worker that got a shard)", pushes)
	}
	holders := 0
	for _, s := range []*devstore.Store{sa, sb} {
		if _, err := s.Get(id); err == nil {
			holders++
		}
	}
	if int64(holders) != pushes {
		t.Errorf("%d workers hold the snapshot but %d pushes were counted", holders, pushes)
	}
}

// TestLateImportCountsAsPushed: a worker that archives a pushed snapshot
// but answers only after the client has timed out still holds it. The
// coordinator must find that out, count the push, and run the shard on
// that worker instead of failing the push.
func TestLateImportCountsAsPushed(t *testing.T) {
	local, id := agedStore(t)
	spec := cliutil.SweepSpec{
		Sweeps:     []string{"casestudy"},
		Traces:     []string{paper.Idle},
		FromDevice: id,
	}
	spec.SetDeviceSource(local)
	want := localBaseline(t, spec)

	store, err := devstore.Open(t.TempDir(), devstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DeviceStore: store})
	h := srv.Handler()
	var imports atomic.Int32
	// The import runs to completion (the snapshot is archived), then the
	// handler holds the response until the client gives up on it.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/devices" {
			imports.Add(1)
			h.ServeHTTP(httptest.NewRecorder(), r)
			select {
			case <-r.Context().Done():
			case <-time.After(time.Minute):
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})

	cfg := fastConfig([]string{ts.URL})
	// Room for the worker's restore-and-archive under the race detector,
	// so the import lands before the client's timeout ends it.
	cfg.HTTPTimeout = 5 * time.Second
	cfg.DisableLocal = true // success must come through the stalling worker
	c := New(cfg)
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("forked sweep diverged from single-process run:\n got %s\nwant %s", got, want)
	}
	st := counters(c)
	if st["coord_shard_attempts_total"] != 1 || st["coord_local_runs_total"] != 0 {
		t.Errorf("attempts %d, local runs %d; want the one shard run once on the worker",
			st["coord_shard_attempts_total"], st["coord_local_runs_total"])
	}
	if n := imports.Load(); n != 1 {
		t.Errorf("worker saw %d imports, want 1", n)
	}
	holders := int64(0)
	if _, err := store.Get(id); err == nil {
		holders = 1
	}
	if pushes := st["coord_device_pushes_total"]; pushes != holders || holders != 1 {
		t.Errorf("%d workers hold the snapshot but %d pushes were counted, want 1 and 1", holders, pushes)
	}
}

// TestFromDeviceDegradesWithoutWorkerStore: a fleet whose only worker has
// no device store cannot accept the push (503 unavailable); the shards
// must degrade to local execution — where the spec's own snapshot source
// serves the fork — and still produce the exact baseline bytes.
func TestFromDeviceDegradesWithoutWorkerStore(t *testing.T) {
	local, id := agedStore(t)
	spec := cliutil.SweepSpec{
		Sweeps:     []string{"casestudy"},
		Traces:     []string{paper.Idle},
		FromDevice: id,
	}
	spec.SetDeviceSource(local)
	want := localBaseline(t, spec)

	storeless := newWorker(t, server.Config{}) // no DeviceStore
	cfg := fastConfig([]string{storeless.URL})
	cfg.MaxAttempts = 2
	c := New(cfg)
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("degraded forked sweep diverged:\n got %s\nwant %s", got, want)
	}
	st := counters(c)
	if st["coord_local_runs_total"] != 1 {
		t.Errorf("local runs = %d, want 1 (the storeless fleet cannot serve forks)", st["coord_local_runs_total"])
	}
}

// TestFromDeviceUnknownFailsFast: a from_device id the coordinator's own
// store does not hold must fail the run before any shard is dispatched.
func TestFromDeviceUnknownFailsFast(t *testing.T) {
	local, _ := agedStore(t)
	spec := cliutil.SweepSpec{
		Sweeps:     []string{"casestudy"},
		Traces:     []string{paper.Idle},
		FromDevice: "d000000000000",
	}
	spec.SetDeviceSource(local)

	c := New(fastConfig([]string{newWorker(t, server.Config{}).URL}))
	if _, err := c.Run(context.Background(), spec); err == nil {
		t.Fatal("run with unknown from_device succeeded, want fail-fast error")
	} else if st := counters(c); st["coord_shard_attempts_total"] != 0 {
		t.Errorf("unknown device still burned %d shard attempts", st["coord_shard_attempts_total"])
	}
}
