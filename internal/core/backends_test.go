package core

import (
	"context"
	"reflect"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// TestCrossBackendDeterminism replays the same synthetic workload twice on
// every backend — fault injection on, so the RNG-coupled paths are covered
// too — and requires bit-identical metrics, FTL stats, and fault counts.
// Determinism is what makes golden tests, snapshot resume, and the paper's
// published numbers possible, so every backend added behind storage.Device
// must pass this suite, not just eMMC.
func TestCrossBackendDeterminism(t *testing.T) {
	const n = 2_000
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendSD, storage.BackendUFS} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			t.Parallel()
			run := func() (Metrics, storage.Metrics, interface{}, faults.Counts) {
				opt := CaseStudyOptions()
				opt.Backend = backend
				opt.Faults = &faults.Config{Rate: 0.5, Seed: 9}
				dev, err := NewDevice(Scheme4PS, opt)
				if err != nil {
					t.Fatal(err)
				}
				m, err := Replay(context.Background(), dev, Scheme4PS, newSynthStream(n), ReplayOpts{})
				if err != nil {
					t.Fatalf("%s replay died: %v", backend, err)
				}
				return m, dev.Metrics(), dev.FTLStats(), dev.FaultCounts()
			}
			m1, dm1, ftl1, fc1 := run()
			m2, dm2, ftl2, fc2 := run()
			if !reflect.DeepEqual(m1, m2) {
				t.Errorf("replay metrics differ between identical runs:\n%+v\n%+v", m1, m2)
			}
			if !reflect.DeepEqual(dm1, dm2) {
				t.Errorf("device metrics differ between identical runs:\n%+v\n%+v", dm1, dm2)
			}
			if !reflect.DeepEqual(ftl1, ftl2) {
				t.Errorf("FTL stats differ between identical runs")
			}
			if !reflect.DeepEqual(fc1, fc2) {
				t.Errorf("fault counts differ between identical runs: %+v vs %+v", fc1, fc2)
			}
			if m1.Served != n {
				t.Errorf("%s served %d of %d requests", backend, m1.Served, n)
			}
		})
	}
}

// TestBackendsDiverge is the sanity check on the check above: the three
// backends must not be the same model wearing different names. The SD
// flavour is slower than eMMC and UFS schedules differently, so their mean
// response times over a shared workload must all differ.
func TestBackendsDiverge(t *testing.T) {
	const n = 1_000
	means := map[storage.Backend]float64{}
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendSD, storage.BackendUFS} {
		opt := CaseStudyOptions()
		opt.Backend = backend
		dev, err := NewDevice(Scheme4PS, opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Replay(context.Background(), dev, Scheme4PS, newSynthStream(n), ReplayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		means[backend] = m.MeanResponseNs
	}
	if means[storage.BackendSD] <= means[storage.BackendEMMC] {
		t.Errorf("sdcard MRT %.0f ns should exceed eMMC MRT %.0f ns (3x timing)",
			means[storage.BackendSD], means[storage.BackendEMMC])
	}
	if means[storage.BackendUFS] == means[storage.BackendEMMC] {
		t.Errorf("UFS MRT identical to eMMC (%.0f ns); backend switch had no effect", means[storage.BackendUFS])
	}
}

// TestUFSOptionsReachDevice ties the option plumbing end to end: the UFS
// sizing knobs set on core.Options must be visible in the built device's
// capabilities.
func TestUFSOptionsReachDevice(t *testing.T) {
	opt := CaseStudyOptions()
	opt.Backend = storage.BackendUFS
	opt.UFSQueues = 2
	opt.UFSQueueDepth = 4
	dev, err := NewDevice(Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	caps := dev.Caps()
	if caps.Backend != storage.BackendUFS {
		t.Errorf("Caps().Backend = %q, want ufs", caps.Backend)
	}
	if caps.PackedCommands {
		t.Error("UFS must not advertise packed commands")
	}
	if caps.QueueDepth != 8 {
		t.Errorf("Caps().QueueDepth = %d, want 2 queues x 4 slots = 8", caps.QueueDepth)
	}
	if _, err := dev.Submit(trace.Request{Op: trace.Write, LBA: 0, Size: 4096}); err != nil {
		t.Fatalf("UFS submit failed: %v", err)
	}
}
