package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/server"
)

// The emmcd-jobs workload: an in-process emmcd (default per-job telemetry,
// 2 job workers, 1 replay worker per job) behind a loopback listener, and a
// closed loop of emmcdClients clients, each POSTing a replay spec and
// polling the job every pollInterval until it is done. The specs are
// single-scheme HPS replays of emmcdSessions back-to-back sessions of the
// canonical Twitter trace on a fresh eMMC device; the seed sets each spec's
// arrival-rate scale in [emmcdScaleMin, 1), so the specs differ in every
// simulated timing while each job costs about the same host work.
//
// One client, not one per core: with two, both cores stay saturated and the
// requests per second of identical runs spread two to three times wider
// (IQR/median 0.12–0.18 against 0.07 over five 30 s runs), so the job
// service's own costs drowned in the host's noise.
//
// The host probe runs between rounds of emmcdRound, and every time is
// divided by the median factor of the run's probes rather than by each
// round's own: one probe per round moved against the service's speed from
// round to round (CV 0.12 wall, 0.24 scaled), but the run's median follows
// the host's slower drift (over five runs, IQR/median of req_per_s 0.10
// wall, 0.08 scaled; of job_ms_p50 0.05 scaled).
const (
	emmcdClients      = 1
	emmcdSpecs        = 4
	emmcdSessions     = 4
	emmcdSessionsTiny = 1
	emmcdScaleMin     = 0.5
	pollInterval      = time.Millisecond
	emmcdRound        = time.Second
)

// emmcdInput is the specs, the results a correct server must return for
// them (computed in-process), and the running server.
type emmcdInput struct {
	bodies   [][]byte // POST bodies
	expected [][]byte // compact JSON of cliutil.ReplaySpec.Run
	results  [][]cliutil.SchemeResult
	order    []int        // spec order the clients rotate through
	next     atomic.Int64 // jobs started, an index into order

	base      string
	client    *http.Client
	srv       *server.Server
	hs        *http.Server
	serveDone chan error
}

func emmcdSetup(cfg config) (*emmcdInput, string, error) {
	sessions := emmcdSessions
	if cfg.tiny {
		sessions = emmcdSessionsTiny
	}
	in := &emmcdInput{}
	var fp strings.Builder
	for k := 0; k < emmcdSpecs; k++ {
		scale := emmcdScaleMin + (1-emmcdScaleMin)*seedFrac(cfg.seed, 200+uint64(k))
		spec := cliutil.ReplaySpec{App: "Twitter", Scheme: "HPS", Sessions: sessions, Scale: scale}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, "", err
		}
		res, err := spec.Run(context.Background(), 1, nil, nil)
		if err != nil {
			return nil, "", err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return nil, "", err
		}
		in.bodies = append(in.bodies, body)
		in.expected = append(in.expected, want)
		in.results = append(in.results, res)
		fp.Write(want)
	}
	return in, fp.String(), nil
}

// start brings the server up behind a loopback listener.
func (in *emmcdInput) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.srv = server.New(server.Config{Workers: 2, JobWorkers: 1})
	in.hs = &http.Server{Handler: in.srv.Handler()}
	in.serveDone = make(chan error, 1)
	go func() { in.serveDone <- in.hs.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     emmcdClients,
		MaxIdleConnsPerHost: emmcdClients,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the HTTP listener, drains the server's workers, and waits for
// both to exit.
func (in *emmcdInput) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in.client.CloseIdleConnections()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.serveDone; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, in.srv.Shutdown(ctx))
}

// jobSample is one job as its client saw it.
type jobSample struct {
	total, post, queue, run time.Duration
	polls                   int
	served                  int64
	traceEvents, traceBytes int
	metricsBytes            int
}

// job submits spec k, polls it to completion, and checks the result. With
// traced set it also fetches the job's span trace.
func (in *emmcdInput) job(k int, traced bool) (jobSample, error) {
	var s jobSample
	start := time.Now()
	var sub struct{ ID string }
	if err := in.call("POST", "/v1/replays", in.bodies[k], http.StatusAccepted, &sub); err != nil {
		return s, err
	}
	s.post = time.Since(start)
	var st server.JobStatus
	for st.State == "" || st.State == server.JobQueued || st.State == server.JobRunning {
		time.Sleep(pollInterval)
		s.polls++
		if err := in.call("GET", "/v1/jobs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return s, err
		}
	}
	s.total = time.Since(start)
	if st.State != server.JobDone {
		return s, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, st.Result); err != nil {
		return s, fmt.Errorf("job %s result: %w", sub.ID, err)
	}
	if !bytes.Equal(got.Bytes(), in.expected[k]) {
		return s, fmt.Errorf("job %s result differs from the in-process run of the same spec", sub.ID)
	}
	for _, r := range in.results[k] {
		s.served += int64(r.Metrics.Served)
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.Created)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return s, fmt.Errorf("job %s timestamps: %w", sub.ID, err)
	}
	s.queue, s.run = started.Sub(created), finished.Sub(started)

	// The job's own registry must have counted exactly the requests served.
	var prom []byte
	if err := in.call("GET", "/v1/jobs/"+sub.ID+"/metrics", nil, http.StatusOK, &prom); err != nil {
		return s, err
	}
	s.metricsBytes = len(prom)
	if n, err := promSum(prom, "core_requests_total"); err != nil || n != s.served {
		return s, fmt.Errorf("job %s core_requests_total %d != served %d (%v)", sub.ID, n, s.served, err)
	}
	if traced {
		var tr []byte
		if err := in.call("GET", "/v1/jobs/"+sub.ID+"/trace", nil, http.StatusOK, &tr); err != nil {
			return s, err
		}
		var events struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(tr, &events); err != nil {
			return s, fmt.Errorf("job %s trace: %w", sub.ID, err)
		}
		s.traceBytes, s.traceEvents = len(tr), len(events.TraceEvents)
	}
	return s, nil
}

// call makes one request and decodes the JSON answer into out (or copies the
// raw body when out is a *[]byte). Any status other than want fails.
func (in *emmcdInput) call(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = b
		return nil
	}
	return json.Unmarshal(b, out)
}

// promSum adds up every sample of one metric in Prometheus text.
func promSum(text []byte, name string) (int64, error) {
	var sum int64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || len(line) == len(name) || (line[len(name)] != '{' && line[len(name)] != ' ') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, err
		}
		sum += int64(v)
	}
	return sum, sc.Err()
}

// closedLoop runs emmcdClients clients until budget has elapsed, each
// starting its next job only when the previous one is done (and always at
// least one). The specs rotate in a seeded order, continued from call to
// call. It returns every completed job.
func (in *emmcdInput) closedLoop(l *ledger, budget time.Duration, traced bool) []jobSample {
	var (
		mu      sync.Mutex
		samples []jobSample
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(budget)
	wg.Add(emmcdClients)
	for range emmcdClients {
		go func() {
			defer wg.Done()
			for {
				k := in.order[int(in.next.Add(1)-1)%len(in.order)]
				s, err := in.job(k, traced)
				mu.Lock()
				l.record(err)
				if err == nil {
					samples = append(samples, s)
				}
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// timedLoop runs the closed loop for budget in rounds of emmcdRound,
// probing the host after each, and returns the completed jobs and their
// summed host time. With clock set, every time is divided by the median
// host factor of the run's probes; nil leaves wall time.
func (in *emmcdInput) timedLoop(l *ledger, budget time.Duration, traced bool, clock *hostClock) (samples []jobSample, elapsed time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		t := time.Now()
		samples = append(samples, in.closedLoop(l, min(emmcdRound, time.Until(deadline)), traced)...)
		d := time.Since(t)
		clock.scale(d)
		elapsed += d
		if !time.Now().Before(deadline) {
			break
		}
	}
	if clock != nil {
		f := median(clock.factors)
		for i := range samples {
			samples[i].total = time.Duration(float64(samples[i].total) / f)
		}
		elapsed = time.Duration(float64(elapsed) / f)
	}
	return samples, elapsed
}

func emmcdJobs(cfg config, l *ledger) (err error) {
	in, setups, err := repeatSetup(l, func() (*emmcdInput, string, error) { return emmcdSetup(cfg) })
	if err != nil {
		return err
	}
	if err := in.start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, in.close()) }()
	for _, e := range in.expected {
		l.model = append(l.model, string(e))
	}
	// A seeded rotation, so every spec still runs equally often.
	rot := int(subSeed(cfg.seed, 300) % emmcdSpecs)
	for i := range emmcdSpecs {
		in.order = append(in.order, (rot+i)%emmcdSpecs)
	}

	// Warm-up: one job per client.
	in.closedLoop(l, 0, false)

	runPhase := func(profile, traced bool) (phase, []jobSample, error) {
		var samples []jobSample
		var clock *hostClock
		if !cfg.traced {
			clock = newHostClock()
		}
		ph, err := measure(profile, clock, func() (int64, time.Duration, error) {
			var elapsed time.Duration
			samples, elapsed = in.timedLoop(l, cfg.budget(), traced, clock)
			var reqs int64
			for _, s := range samples {
				reqs += s.served
			}
			return reqs, elapsed, nil
		})
		return ph, samples, err
	}
	ms := func(samples []jobSample, f func(jobSample) time.Duration) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = float64(f(s).Nanoseconds()) / 1e6
		}
		return out
	}
	if !cfg.traced {
		ph, samples, err := runPhase(false, false)
		if err != nil {
			return err
		}
		l.endToEnd(setups, ph, ms(samples, func(s jobSample) time.Duration { return s.total }))
		return nil
	}

	zeroLayers(l)
	plain, _, err := runPhase(true, false)
	if err != nil {
		return err
	}
	traced, samples, err := runPhase(false, true)
	if err != nil {
		return err
	}
	l.layer("server.post_ms_p50", median(ms(samples, func(s jobSample) time.Duration { return s.post })))
	l.layer("server.queue_wait_ms_p50", median(ms(samples, func(s jobSample) time.Duration { return s.queue })))
	l.layer("server.run_ms_p50", median(ms(samples, func(s jobSample) time.Duration { return s.run })))
	l.layer("server.client_overhead_ms_p50", median(ms(samples, func(s jobSample) time.Duration { return s.total - s.queue - s.run })))
	var polls, events, traceB, metricsB []float64
	for _, s := range samples {
		polls = append(polls, float64(s.polls))
		events = append(events, float64(s.traceEvents))
		traceB = append(traceB, float64(s.traceBytes))
		metricsB = append(metricsB, float64(s.metricsBytes))
	}
	l.layer("server.polls_per_job", mean(polls))
	l.layer("telemetry.trace_events_per_job", mean(events))
	l.layer("telemetry.trace_bytes_per_job", mean(traceB))
	l.layer("telemetry.metrics_bytes_per_job", mean(metricsB))
	l.meta["jobs"] = len(samples)
	in.modelLayers(l)
	l.tracedPhases(plain, traced)
	return nil
}

// modelLayers sets the model counters the job results carry, over the
// distinct specs (so they are exact whatever mix of jobs a run completed).
func (in *emmcdInput) modelLayers(l *ledger) {
	var served, resp, nowait, gcStall float64
	for _, res := range in.results {
		for _, r := range res {
			m := r.Metrics
			n := float64(m.Served)
			served += n
			resp += m.MeanResponseNs * n
			nowait += m.NoWaitRatio * n
			gcStall += float64(m.GCStallNs)
		}
	}
	l.layer("sim.mrt_ns", resp/served)
	l.layer("sim.nowait_frac", nowait/served)
	l.layer("dev.gc_stall_frac", gcStall/resp)
}
