// Replay is the package's one replay entry point. It pulls requests from a
// trace.Stream, so memory is O(in-flight requests) and independent of trace
// length. A materialized trace replays through trace.FromSlice, with a Sink
// to collect the timestamps; both inputs execute the identical Submit
// sequence, so their Metrics are bit-identical
// (TestStreamingReplayEquivalence enforces it).

package core

import (
	"context"
	"fmt"

	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// ReplayOpts are Replay's optional inputs. The zero value is a FIFO replay
// with telemetry off and no sink.
type ReplayOpts struct {
	// Policy selects host-side scheduling. SchedFIFO (the zero value)
	// submits in arrival order and lets the device compute waiting; any
	// other policy runs an OS-level dispatcher that picks among the
	// requests that have arrived by the time the device frees.
	Policy SchedPolicy
	// Registry and Tracer, when non-nil, are attached to the device stack.
	// The replay feeds the core_requests_total counter and the
	// core_{response,service,wait}_ns histograms, split by operation, and
	// records one "request" span (arrival → finish) and one "service" span
	// (service start → finish) per request on the requests/read or
	// requests/write track.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	// Sink, when non-nil, receives every request with its replayed
	// ServiceStart and Finish filled in, in dispatch order (arrival order
	// under SchedFIFO) — the hook online analysis and streaming trace
	// writers attach to. A sink error aborts the replay.
	Sink func(trace.Request) error
}

// Replay runs every request of st through dev and returns the replay
// metrics. dev may be fresh or hold state from earlier replays (aging
// studies, forked snapshots); requests must arrive in order. ctx is checked
// between requests, so a canceled replay returns promptly with ctx's error
// instead of running the stream dry; the check costs nothing when ctx can
// never be canceled (Background/TODO).
func Replay(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, o ReplayOpts) (Metrics, error) {
	if o.Policy != SchedFIFO {
		return scheduledLoop(ctx, dev, s, st, o)
	}
	return replayLoop(ctx, dev, s, st, o)
}

// ReplayStreamSinkContext is a FIFO Replay with the options as arguments.
//
// Deprecated: use Replay. It stays only because perfbench, a separate
// module pinned to the benchmark it runs, calls it by this name.
func ReplayStreamSinkContext(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer, sink func(trace.Request) error) (Metrics, error) {
	return Replay(ctx, dev, s, st, ReplayOpts{Registry: reg, Tracer: tc, Sink: sink})
}

// Resume shifts st to start one idle second after dev's last activity, so a
// device restored from a snapshot (or forked from an archived one) replays
// a new session after its history instead of overlapping it.
func Resume(dev storage.Device, st trace.Stream) trace.Stream {
	return trace.ShiftStream(st, dev.LastActivity()+1_000_000_000)
}

// observer is the per-request step both replay loops share: the core_*
// series, the request/service spans, and the sink. The series are indexed
// by operation: 0 for reads, 1 for writes.
type observer struct {
	reqs             [2]*telemetry.Counter
	resp, serv, wait [2]*telemetry.Histogram
	tc               *telemetry.Tracer
	sink             func(trace.Request) error
}

// newObserver attaches o's telemetry to dev (nil values leave it off) and
// resolves the metric handles once.
func newObserver(dev storage.Device, o ReplayOpts) observer {
	if o.Registry != nil || o.Tracer != nil {
		dev.SetTelemetry(o.Registry, o.Tracer)
	}
	ob := observer{tc: o.Tracer, sink: o.Sink}
	if reg := o.Registry; reg != nil {
		for op, name := range [2]string{"read", "write"} {
			l := telemetry.L("op", name)
			ob.reqs[op] = reg.Counter("core_requests_total", l)
			ob.resp[op] = reg.Histogram("core_response_ns", nil, l)
			ob.serv[op] = reg.Histogram("core_service_ns", nil, l)
			ob.wait[op] = reg.Histogram("core_wait_ns", nil, l)
		}
	}
	return ob
}

// served observes one completed request and hands it, timestamped, to the
// sink; it returns the sink's error.
func (ob *observer) served(req trace.Request, res storage.Result) error {
	op := 0
	if req.Op == trace.Write {
		op = 1
	}
	if ob.reqs[op] != nil {
		ob.reqs[op].Inc()
		ob.resp[op].Observe(res.Finish - req.Arrival)
		ob.serv[op].Observe(res.Finish - res.ServiceStart)
		ob.wait[op].Observe(res.ServiceStart - req.Arrival)
	}
	if ob.tc != nil {
		track := [2]string{"requests/read", "requests/write"}[op]
		ob.tc.Span("core", track, "request", req.Arrival, res.Finish)
		ob.tc.Span("core", track, "service", res.ServiceStart, res.Finish)
	}
	if ob.sink == nil {
		return nil
	}
	req.ServiceStart = res.ServiceStart
	req.Finish = res.Finish
	return ob.sink(req)
}

// replayLoop is the FIFO replay: pull, submit, observe, sink. ctx is polled
// once per request; Background's nil Done channel skips the check entirely,
// keeping the uncancellable hot path identical.
func replayLoop(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, o ReplayOpts) (Metrics, error) {
	ob := newObserver(dev, o)
	name := st.Name()
	done := ctx.Done()
	for i := 0; ; i++ {
		if done != nil {
			select {
			case <-done:
				return Metrics{}, fmt.Errorf("core: replay of %s canceled at request %d: %w", name, i, ctx.Err())
			default:
			}
		}
		req, ok, err := st.Next()
		if err != nil {
			return Metrics{}, fmt.Errorf("core: reading %s request %d: %w", name, i, err)
		}
		if !ok {
			break
		}
		res, err := dev.Submit(req)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: replaying %s request %d on %s: %w", name, i, s, err)
		}
		if err := ob.served(req, res); err != nil {
			return Metrics{}, fmt.Errorf("core: sinking %s request %d: %w", name, i, err)
		}
	}
	return deviceMetrics(dev, name, s), nil
}

// deviceMetrics assembles the full replay Metrics from device state.
func deviceMetrics(dev storage.Device, name string, s Scheme) Metrics {
	dm := dev.Metrics()
	fs := dev.FTLStats()
	m := Metrics{
		Trace:            name,
		Scheme:           s,
		Served:           int(dm.Served),
		MeanResponseNs:   dm.MeanResponseNs(),
		MeanServiceNs:    dm.MeanServiceNs(),
		NoWaitRatio:      dm.NoWaitRatio(),
		SpaceUtilization: fs.SpaceUtilization(),
		GCStallNs:        dm.GCStallNs,
		IdleGCNs:         dm.IdleGCNs,
		BufferHitRate:    dev.BufferHitRate(),
		LightWakes:       dm.LightWakes,
		DeepWakes:        dm.DeepWakes,
		ProgramFaults:    fs.ProgramFaults,
		EraseFaults:      fs.EraseFaults,
		ReadFaults:       dm.ReadFaults,
		RetiredBlocks:    fs.RetiredBlocks,
		RecoveryNs:       dm.RecoveryNs,
	}
	if fs.HostProgrammedPages > 0 {
		m.WriteAmplification = 1 + float64(fs.GC.PageMoves)/float64(fs.HostProgrammedPages)
	}
	return m
}

// scheduledLoop is the host-side dispatcher behind every non-FIFO Replay:
// it admits whatever has arrived by the time the device frees and submits
// the request o.Policy picks, at that dispatch time. Memory is O(waiting
// queue): one lookahead request plus the arrived, undispatched ones. With
// SchedFIFO it reproduces replayLoop's timestamps
// (TestScheduledFIFOMatchesReplay holds it to that).
func scheduledLoop(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, o ReplayOpts) (Metrics, error) {
	ob := newObserver(dev, o)
	type item struct {
		idx int
		req trace.Request
	}
	name := st.Name()
	var queue []item
	var deviceFree int64
	// A resumed device's history counts toward NoWait, as it does toward
	// every other device-lifetime field of Metrics.
	noWait := dev.Metrics().NoWait

	// One-request lookahead over the stream, replacing the slice index.
	next := 0
	var head trace.Request
	headOK := false
	pull := func() error {
		r, ok, err := st.Next()
		if err != nil {
			return fmt.Errorf("core: reading %s request %d: %w", name, next, err)
		}
		head, headOK = r, ok
		return nil
	}
	if err := pull(); err != nil {
		return Metrics{}, err
	}

	pick := func() int {
		best := 0
		switch o.Policy {
		case SchedSJF:
			for i := 1; i < len(queue); i++ {
				if queue[i].req.Size < queue[best].req.Size {
					best = i
				}
			}
		case SchedReadFirst:
			for i := 1; i < len(queue); i++ {
				bi, ii := queue[best].req, queue[i].req
				if ii.Op == trace.Read && bi.Op != trace.Read {
					best = i
				}
			}
		}
		return best
	}

	done := ctx.Done()
	for headOK || len(queue) > 0 {
		if done != nil {
			select {
			case <-done:
				return Metrics{}, fmt.Errorf("core: scheduled replay of %s canceled at request %d: %w", name, next, ctx.Err())
			default:
			}
		}
		// Admit everything that has arrived by the time the device frees.
		for headOK && (len(queue) == 0 || head.Arrival <= deviceFree) {
			queue = append(queue, item{idx: next, req: head})
			next++
			if err := pull(); err != nil {
				return Metrics{}, err
			}
		}
		i := pick()
		it := queue[i]
		queue = append(queue[:i], queue[i+1:]...)

		dispatchAt := it.req.Arrival
		if deviceFree > dispatchAt {
			dispatchAt = deviceFree
		}
		res, err := dev.SubmitAt(dispatchAt, it.req)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: scheduled replay of %s: %w", name, err)
		}
		deviceFree = res.Finish
		if res.ServiceStart == it.req.Arrival {
			noWait++
		}
		if err := ob.served(it.req, res); err != nil {
			return Metrics{}, fmt.Errorf("core: sinking %s request %d: %w", name, it.idx, err)
		}
	}

	// The device sees every dispatch at deviceFree, so its own wait
	// accounting never fires; NoWait is the paper's ServiceStart == Arrival.
	m := deviceMetrics(dev, name, s)
	if m.Served > 0 {
		m.NoWaitRatio = float64(noWait) / float64(m.Served)
	}
	return m, nil
}
