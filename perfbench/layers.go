package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"emmcio/internal/core"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// timedStream charges the host time spent inside the wrapped stream's Next
// to the layer that produced the stream (the codec or the generator).
type timedStream struct {
	trace.Stream
	ns int64
}

func (s *timedStream) Next() (trace.Request, bool, error) {
	t := time.Now()
	req, ok, err := s.Stream.Next()
	s.ns += int64(time.Since(t))
	return req, ok, err
}

// timedDevice charges the host time spent inside the device's submit calls
// to the device front end and everything below it, per call. It also
// notes whether the replay attached program telemetry to the device.
type timedDevice struct {
	storage.Device
	ns          int64
	read, write hist
	telemetry   bool
}

func (d *timedDevice) observe(op trace.Op, t time.Time) {
	ns := int64(time.Since(t))
	d.ns += ns
	if op == trace.Write {
		d.write.add(ns)
	} else {
		d.read.add(ns)
	}
}

func (d *timedDevice) Submit(req trace.Request) (storage.Result, error) {
	t := time.Now()
	res, err := d.Device.Submit(req)
	d.observe(req.Op, t)
	return res, err
}

func (d *timedDevice) SubmitAt(at int64, req trace.Request) (storage.Result, error) {
	t := time.Now()
	res, err := d.Device.SubmitAt(at, req)
	d.observe(req.Op, t)
	return res, err
}

func (d *timedDevice) SubmitPacked(at int64, reqs []trace.Request) ([]storage.Result, error) {
	t := time.Now()
	res, err := d.Device.SubmitPacked(at, reqs)
	op := trace.Read
	if len(reqs) > 0 {
		op = reqs[0].Op
	}
	d.observe(op, t)
	return res, err
}

func (d *timedDevice) SetTelemetry(reg *telemetry.Registry, tc *telemetry.Tracer) {
	if reg != nil || tc != nil {
		d.telemetry = true
	}
	d.Device.SetTelemetry(reg, tc)
}

// replayTimes accumulates the host-time split of traced replays. The parts
// reconcile by construction: stream + submit + core self = wall.
type replayTimes struct {
	reqs                    int64
	wallNs, streamNs, subNs int64
	read, write             hist
	telemetryAttached       bool
}

// replay runs one streaming replay (the loop emmcsim and emmcd use). With
// times nil the call is uninstrumented. Otherwise the device is wrapped,
// ts is the caller's wrapper around the layer that produces st's requests
// (st may add trace transforms on top, which count as core), and the split
// is added to times.
func replay(dev storage.Device, s core.Scheme, st trace.Stream, ts *timedStream, times *replayTimes) error {
	if times == nil {
		_, err := core.ReplayStreamSinkContext(context.Background(), dev, s, st, nil, nil, nil)
		return err
	}
	td := &timedDevice{Device: dev}
	served := dev.Metrics().Served
	t := time.Now()
	_, err := core.ReplayStreamSinkContext(context.Background(), td, s, st, nil, nil, nil)
	times.wallNs += int64(time.Since(t))
	times.streamNs += ts.ns
	times.subNs += td.ns
	times.read.merge(&td.read)
	times.write.merge(&td.write)
	times.reqs += dev.Metrics().Served - served
	times.telemetryAttached = times.telemetryAttached || td.telemetry
	return err
}

// set reports the host-time split under the given stream and device layer
// names; the other layers of the same kind read 0 on this workload.
func (t *replayTimes) set(l *ledger, streamLayer, devLayer string) {
	per := func(ns int64) float64 { return float64(ns) / float64(t.reqs) }
	self := t.wallNs - t.streamNs - t.subNs
	l.layer(streamLayer, per(t.streamNs))
	l.layer("core.self_ns_per_req", per(self))
	var all hist
	all.merge(&t.read)
	all.merge(&t.write)
	l.layer(devLayer+".submit_ns_per_req", per(t.subNs))
	l.layer(devLayer+".submit_ns_p99", all.quantile(0.99))
	if devLayer == "emmc" {
		l.layer("emmc.submit_read_ns_p50", t.read.quantile(0.5))
		l.layer("emmc.submit_write_ns_p50", t.write.quantile(0.5))
	}
	l.meta["traced_requests"] = t.reqs
	l.meta["replay_wall_ns"] = t.wallNs
	l.meta["replay_parts_ns"] = map[string]int64{strings.TrimSuffix(streamLayer, "_ns_per_req"): t.streamNs, devLayer + ".submit": t.subNs, "core.self": self}
	l.meta["samples"] = map[string]uint64{"submit_read": t.read.n, "submit_write": t.write.n}
}

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; a layer the workload does not cross reads 0.
var perLayer = []struct{ name, unit string }{
	{"trace.decode_ns_per_req", "ns"},
	{"workload.gen_ns_per_req", "ns"},
	{"core.self_ns_per_req", "ns"},
	{"emmc.submit_ns_per_req", "ns"},
	{"emmc.submit_read_ns_p50", "ns"},
	{"emmc.submit_write_ns_p50", "ns"},
	{"emmc.submit_ns_p99", "ns"},
	{"ufs.submit_ns_per_req", "ns"},
	{"ufs.submit_ns_p99", "ns"},
	{"storage.restore_ms", "ms"},
	{"storage.seal_ms", "ms"},
	{"storage.seal_bytes", "B"},
	{"server.post_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.client_overhead_ms_p50", "ms"},
	{"server.polls_per_job", "count"},
	{"telemetry.trace_events_per_job", "count"},
	{"telemetry.trace_bytes_per_job", "B"},
	{"telemetry.metrics_bytes_per_job", "B"},
	{"ftl.host_pages_per_req", "ratio"},
	{"ftl.gc_moves_per_host_page", "ratio"},
	{"ftl.erases_per_1k_req", "count"},
	{"dev.gc_stall_frac", "ratio"},
	{"ufs.buffered_chunks_per_write", "ratio"},
	{"ufs.destage_stall_ns_per_req", "ns"},
	{"sim.mrt_ns", "ns"},
	{"sim.nowait_frac", "ratio"},
	{"go.gc_cycles_per_1k_req", "count"},
	{"go.alloc_bytes_per_req", "B"},
	{"bench.trace_overhead_x", "ratio"},
}

// layer sets one per-layer metric, with the unit perLayer (or, for the CPU
// shares, cpuLayers) gives it.
func (l *ledger) layer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			l.set(name, m.unit, v)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// zeroLayers sets every per-layer metric to 0 before a traced run fills in
// the ones its workload crosses.
func zeroLayers(l *ledger) {
	for _, m := range perLayer {
		l.set(m.name, m.unit, 0)
	}
	for _, c := range cpuLayers {
		l.set("cpu."+c, "share", 0)
	}
}

// devState is a device's exact model counters at one instant.
type devState struct {
	M     storage.Metrics
	F     ftl.Stats
	Draws int64
}

func stateOf(dev storage.Device) devState {
	return devState{M: dev.Metrics(), F: dev.FTLStats(), Draws: dev.FaultDraws()}
}

func (s devState) String() string { return fmt.Sprintf("%+v %+v draws=%d", s.M, s.F, s.Draws) }

// checkReplay applies the output checks every replay must pass: the device
// served exactly the requests pulled, response time is conserved exactly
// (response = wait + service), and the model counters equal the reference.
func checkReplay(got, want devState, pulled int64) error {
	m := got.M
	if m.SumResponseNs != m.SumWaitNs+m.SumServiceNs {
		return fmt.Errorf("response %d != wait %d + service %d", m.SumResponseNs, m.SumWaitNs, m.SumServiceNs)
	}
	if got != want {
		return fmt.Errorf("model counters differ from the reference replay:\n got %v\nwant %v", got, want)
	}
	if pulled >= 0 && got.M.Served != pulled {
		return fmt.Errorf("served %d requests of %d pulled", got.M.Served, pulled)
	}
	return nil
}

// modelLayers sets the exact model counters of one replay: after − before.
func modelLayers(l *ledger, before, after devState, writes int64) {
	served := float64(after.M.Served - before.M.Served)
	host := float64(after.F.HostProgrammedPages - before.F.HostProgrammedPages)
	moves := float64(after.F.GC.PageMoves - before.F.GC.PageMoves)
	resp := float64(after.M.SumResponseNs - before.M.SumResponseNs)
	l.layer("ftl.host_pages_per_req", host/served)
	l.layer("ftl.gc_moves_per_host_page", moves/host)
	l.layer("ftl.erases_per_1k_req", float64(after.F.GC.Erases-before.F.GC.Erases)*1000/served)
	l.layer("dev.gc_stall_frac", float64(after.M.GCStallNs-before.M.GCStallNs)/resp)
	l.layer("ufs.buffered_chunks_per_write", float64(after.M.BufferedWrites-before.M.BufferedWrites)/float64(writes))
	l.layer("ufs.destage_stall_ns_per_req", float64(after.M.DestageStallNs-before.M.DestageStallNs)/served)
	l.layer("sim.mrt_ns", resp/served)
	l.layer("sim.nowait_frac", float64(after.M.NoWait-before.M.NoWait)/served)
}
