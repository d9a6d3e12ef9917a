// Package nand is the flash back end every device model runs on: the FTL,
// the fault injector, the channel and plane resources, and the mechanics
// that turn a host request's sectors into scheduled page operations —
// write splitting, per-unit pipelining, GC pricing, the read path with its
// read-scrub recovery, idle GC, and the staging FIFO that write-back front
// ends (the eMMC RAM write buffer, the UFS SLC booster) drain into the FTL.
//
// A device embeds a Backend by value and adds only its host interface:
// command admission and queueing, packing, the power model, the flush
// cost, and how a staged write is acknowledged. With one back end under
// every device, a difference between backends is the host interface by
// construction — the argument §V makes for running every page-size scheme
// on one FTL.
package nand

import (
	"fmt"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/reliability"
	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// Params describes the flash array and controller a front end runs on.
type Params struct {
	// Name prefixes error messages, trace layers and metric names.
	Name         string
	Geometry     flash.Geometry
	Timing       flash.Timing
	Pools        []flash.PoolSpec
	GCFreeBlocks int
	Wear         ftl.WearPolicy
	Faults       *faults.Config
	// Interleave selects the channel discipline: the channel frees after
	// the transfer and pipelining counts per plane; otherwise the channel
	// is held through the flash operation and pipelining counts per
	// channel.
	Interleave bool

	// Controller RAM: the read LRU, the mapping cache, the read-ahead
	// depth and the wear-dependent read-retry model (zero/nil = off).
	RAMBufferBytes int64
	MapCacheBytes  int64
	ReadAheadPages int
	Reliability    *reliability.Model

	// StageBytes sizes the staging FIFO (below one page = off). SLCStage
	// says where staged data lives: in SLC flash, so a host read of it is
	// an SLC page read and a destage first reads the page back; or in
	// controller RAM, so a host read is a RAM hit and a destage first
	// moves the payload over the channel.
	StageBytes int64
	SLCStage   bool
	// StageGauge and DestageCounter name the stage's occupancy gauge and
	// destage counter, after the Name_ prefix.
	StageGauge, DestageCounter string
}

// Validate reports unusable configurations.
func (p Params) Validate() error {
	if err := p.Geometry.Validate(); err != nil {
		return err
	}
	if err := p.Timing.Validate(); err != nil {
		return err
	}
	if len(p.Pools) == 0 {
		return fmt.Errorf("%s: no pools", p.Name)
	}
	for i, pool := range p.Pools {
		if err := pool.Validate(); err != nil {
			return err
		}
		if _, ok := p.Timing.PerPage[pool.PageBytes]; !ok {
			return fmt.Errorf("%s: no timing for pool page size %d", p.Name, pool.PageBytes)
		}
		if i > 0 && pool.PageBytes >= p.Pools[i-1].PageBytes {
			return fmt.Errorf("%s: pools must be ordered largest page first", p.Name)
		}
	}
	// The mapping cache (on from one 4 KiB translation page up) prices its
	// translation I/O at the 4 KiB page latencies.
	if _, ok := p.Timing.PerPage[flash.SectorBytes]; !ok && p.MapCacheBytes >= flash.SectorBytes {
		return fmt.Errorf("%s: a mapping cache needs timing for %d-byte translation pages", p.Name, flash.SectorBytes)
	}
	if p.GCFreeBlocks < 1 {
		return fmt.Errorf("%s: GC threshold below 1", p.Name)
	}
	return p.Faults.Validate()
}

// maxPools is how many pools' costs the Backend holds in a fixed array,
// so arrays up to a 32K/16K/8K/4K hybrid price every op without a heap
// allocation of their own; the costs of further pools go in a slice.
const maxPools = 4

// poolCost is one pool's flash latencies in ns, resolved from the Timing
// once at construction so a flash operation is priced by an index.
type poolCost struct {
	read    int64    // a page read (Timing.ReadPool)
	program [2]int64 // a page program by page parity (Timing.ProgramPool)
	// rawRead and rawProgram are the page size's table latencies: a GC
	// page move pays both, a destage estimate the program.
	rawRead, rawProgram int64
	// slcRead and slcProgram price an SLC-mode page of the pool's size:
	// a read of SLC-staged data, a booster program and its read-out.
	slcRead, slcProgram int64
}

// Backend is one flash array with its FTL. It is single-goroutine, like
// the storage.Device that embeds it.
type Backend struct {
	p        Params
	ftl      *ftl.FTL
	inj      *faults.Injector
	channels []sim.Resource
	planes   []sim.Resource
	rrPlane  int
	lastEnd  int64 // completion time of the most recent request or flush
	stage    *stage
	ram      *ramBuffer
	mapCache *ftl.MapCache

	// Counters accumulates the device's metrics; front ends add their own
	// (wake-ups) directly.
	Counters storage.Metrics

	// Cached read-retry factors per pool, refreshed when wear changes
	// (nil without a reliability model).
	relFactor []float64
	relPE     []float64

	// Read-ahead state: the sector run the device expects next.
	lastReadEnd int64
	prefetches  int64
	prefetchHit int64

	tel   *backTel
	spans *backSpans

	// cost and costMore are the per-pool latency table (see costOf);
	// mapRead and mapProgram price a translation page (4 KiB) for the
	// mapping cache.
	cost                [maxPools]poolCost
	costMore            []poolCost
	mapRead, mapProgram int64

	// Per-request scratch, reused across submissions. Contents are only
	// meaningful within one submit call; every consumer that outlives the
	// call (FTL reverse map, stage) copies what it keeps.
	lpnBuf      []int64
	chunkBuf    []Chunk
	readOps     []readOp
	pendingLPNs []int64
	unitOps     []int
}

// New builds a fresh back end.
func New(p Params) (Backend, error) {
	f, err := ftl.New(p.ftlConfig())
	if err != nil {
		return Backend{}, err
	}
	inj, err := faults.New(p.Faults)
	if err != nil {
		return Backend{}, err
	}
	return build(p, f, inj), nil
}

// ftlConfig is the FTL configuration of the flash array p describes.
func (p Params) ftlConfig() ftl.Config {
	return ftl.Config{Geometry: p.Geometry, Pools: p.Pools, GCFreeBlocks: p.GCFreeBlocks, Wear: p.Wear}
}

// build assembles a back end around an FTL and the injector it shares.
func build(p Params, f *ftl.FTL, inj *faults.Injector) Backend {
	f.SetFaults(inj)
	b := Backend{
		p:        p,
		ftl:      f,
		inj:      inj,
		channels: make([]sim.Resource, p.Geometry.Channels),
		planes:   make([]sim.Resource, p.Geometry.Planes()),
		stage:    newStage(p.StageBytes),
		ram:      newRAMBuffer(p.RAMBufferBytes),
		mapCache: ftl.NewMapCache(p.MapCacheBytes),
		unitOps:  make([]int, p.Geometry.Planes()),
	}
	if n := len(p.Pools); n > maxPools {
		b.costMore = make([]poolCost, n-maxPools)
	}
	t := &p.Timing
	for i, pool := range p.Pools {
		slc := flash.PoolSpec{PageBytes: pool.PageBytes, BlocksPerPlane: 1, PagesPerBlock: 1, SLCMode: true}
		*b.costOf(i) = poolCost{
			read:       t.ReadPool(pool),
			program:    [2]int64{t.ProgramPool(pool, 0), t.ProgramPool(pool, 1)},
			rawRead:    t.Read(pool.PageBytes),
			rawProgram: t.Program(pool.PageBytes),
			slcRead:    t.ReadPool(slc),
			slcProgram: t.ProgramPool(slc, 0),
		}
	}
	if b.mapCache != nil {
		b.mapRead, b.mapProgram = t.Read(flash.SectorBytes), t.Program(flash.SectorBytes)
	}
	if p.Reliability != nil {
		b.relFactor = make([]float64, len(p.Pools))
		b.relPE = make([]float64, len(p.Pools))
	}
	return b
}

// Geometry returns the flash array's shape.
func (b *Backend) Geometry() flash.Geometry { return b.p.Geometry }

// CapacityBytes returns the device's physical flash capacity (the main
// pools; a booster is over-provisioning, not addressable space).
func (b *Backend) CapacityBytes() int64 { return b.p.CapacityBytes() }

// CapacityBytes returns the main pools' physical flash capacity.
func (p Params) CapacityBytes() int64 {
	var total int64
	for _, pool := range p.Pools {
		total += pool.BytesPerPlane() * int64(p.Geometry.Planes())
	}
	return total
}

// Metrics returns a copy of the accumulated metrics.
func (b *Backend) Metrics() storage.Metrics { return b.Counters }

// FTLStats exposes the translation layer's accounting (space
// utilization, GC totals).
func (b *Backend) FTLStats() ftl.Stats { return b.ftl.Stats() }

// Wear exposes the erase distribution of pool index pool.
func (b *Backend) Wear(pool int) ftl.WearSummary { return b.ftl.Wear(pool) }

// Pools describes the device's flash pools; Wear indexes into this slice.
func (b *Backend) Pools() []flash.PoolSpec { return b.ftl.Pools() }

// MapCacheStats exposes the mapping-cache counters (zero when disabled).
func (b *Backend) MapCacheStats() ftl.MapCacheStats {
	if b.mapCache == nil {
		return ftl.MapCacheStats{}
	}
	return b.mapCache.Stats()
}

// BufferHitRate returns the read hit rate of the SLC stage, or of the RAM
// read buffer when staging is in RAM (0 when disabled).
func (b *Backend) BufferHitRate() float64 {
	if b.p.SLCStage {
		return b.stage.hitRate()
	}
	return b.ram.hitRate()
}

// PrefetchStats reports read-ahead activity: prefetched sectors and how
// many later reads they served.
func (b *Backend) PrefetchStats() (prefetched, hits int64) { return b.prefetches, b.prefetchHit }

// FaultCounts exposes the injector's per-kind fault totals (all zero when
// injection is off).
func (b *Backend) FaultCounts() faults.Counts { return b.inj.Counts() }

// FaultDraws reports the injector's decision-stream position (0 when
// injection is off).
func (b *Backend) FaultDraws() int64 { return b.inj.Draws() }

// FaultConfig returns the fault configuration the injector was built from.
func (b *Backend) FaultConfig() *faults.Config { return b.p.Faults }

// SetFaultConfig replaces the fault injector with a fresh one built from
// fc (nil = injection off). The new injector starts at draw 0, as if fc
// had been in the construction config — the FTL shares it, so the
// decision stream stays one deterministic sequence.
func (b *Backend) SetFaultConfig(fc *faults.Config) error {
	inj, err := faults.New(fc)
	if err != nil {
		return err
	}
	b.p.Faults = fc
	b.inj = inj
	b.ftl.SetFaults(inj)
	return nil
}

// AddArtificialWear pre-ages a pool (aging studies).
func (b *Backend) AddArtificialWear(pool int, erases int64) { b.ftl.AddArtificialWear(pool, erases) }

// LastActivity returns the completion time of the most recent request or
// flush — callers resuming a snapshot rebase new sessions past it (see
// trace.Shift).
func (b *Backend) LastActivity() int64 { return b.lastEnd }

// Utilization reports how busy the device's resources were over the replay
// horizon [0, LastActivity]: the fraction of time each channel and plane
// held work, plus the device-level busy fraction. Smartphone traces leave
// the device overwhelmingly idle — the quantitative basis of Implication 1
// and Implication 2's idle-gap budget.
type Utilization struct {
	Channels []float64
	Planes   []float64
	// Device is total request service time over the horizon.
	Device float64
}

// Utilization computes resource busy fractions.
func (b *Backend) Utilization() Utilization {
	var u Utilization
	horizon := b.lastEnd
	if horizon <= 0 {
		return u
	}
	for i := range b.channels {
		_, busy := b.channels[i].State()
		u.Channels = append(u.Channels, float64(busy)/float64(horizon))
	}
	for i := range b.planes {
		_, busy := b.planes[i].State()
		u.Planes = append(u.Planes, float64(busy)/float64(horizon))
	}
	u.Device = float64(b.Counters.SumServiceNs) / float64(horizon)
	return u
}

// costOf returns pool index pool's entry of the cost table.
func (b *Backend) costOf(pool int) *poolCost {
	if pool < maxPools {
		return &b.cost[pool]
	}
	return &b.costMore[pool-maxPools]
}

// SLCProgramNs prices an SLC-mode program of a page of pool index pool:
// what a booster program costs.
func (b *Backend) SLCProgramNs(pool int) int64 { return b.costOf(pool).slcProgram }

// Staging reports whether writes go through the staging FIFO.
func (b *Backend) Staging() bool { return b.stage != nil }

// CheckRequest rejects a malformed request before the device touches any
// state: a size that is not whole pages, an arrival after its dispatch, or
// an LPN range leaving the FTL's address space.
func (b *Backend) CheckRequest(dispatchAt int64, req trace.Request) error {
	if req.Size == 0 || req.Size%trace.PageSize != 0 {
		return fmt.Errorf("%s: request size %d not page aligned", b.p.Name, req.Size)
	}
	if req.Arrival > dispatchAt {
		return fmt.Errorf("%s: batch member arrives after dispatch", b.p.Name)
	}
	if err := ftl.CheckRange(int64(req.LBA/trace.SectorsPerPage), int(req.Size/trace.PageSize)); err != nil {
		return fmt.Errorf("%s: request at LBA %d: %w", b.p.Name, req.LBA, err)
	}
	return nil
}

// LPNs returns the request's sector numbers in device scratch, valid until
// the next call.
func (b *Backend) LPNs(req trace.Request) []int64 {
	startLPN := int64(req.LBA) / trace.SectorsPerPage
	nSectors := int(req.Size) / trace.PageSize
	lpns := b.lpnBuf[:0]
	for i := 0; i < nSectors; i++ {
		lpns = append(lpns, startLPN+int64(i))
	}
	b.lpnBuf = lpns
	return lpns
}

// Complete accounts one served request that started service at
// serviceStart and finished at finish, and returns its Result.
func (b *Backend) Complete(req trace.Request, serviceStart, finish int64, waited bool) storage.Result {
	if finish > b.lastEnd {
		b.lastEnd = finish
	}
	m := &b.Counters
	m.Served++
	if !waited {
		m.NoWait++
	}
	m.SumServiceNs += finish - serviceStart
	m.SumResponseNs += finish - req.Arrival
	m.SumWaitNs += serviceStart - req.Arrival
	if b.tel != nil {
		b.observe(req, serviceStart, finish)
	}
	return storage.Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}
}

// observe records one served request's latencies and refreshes the
// occupancy gauges; only called with telemetry on.
func (b *Backend) observe(req trace.Request, serviceStart, finish int64) {
	t := b.tel
	if req.Op == trace.Write {
		t.writes.Inc()
		t.writeServNs.Observe(finish - serviceStart)
	} else {
		t.reads.Inc()
		t.readServNs.Observe(finish - serviceStart)
	}
	t.waitNs.Observe(serviceStart - req.Arrival)
	b.publish()
}

// Barrier services a cache-flush barrier that may start at start: it waits
// for every channel and plane to drain, forces the stage's content to
// flash, then pays cost.
func (b *Backend) Barrier(start, cost int64, waited bool) storage.Result {
	for i := range b.channels {
		if f := b.channels[i].FreeAt(); f > start {
			start = f
		}
	}
	for i := range b.planes {
		if f := b.planes[i].FreeAt(); f > start {
			start = f
		}
	}
	serviceStart := start
	for b.stage != nil {
		ns := b.destageOne()
		if ns <= 0 {
			break
		}
		start += ns
		b.Counters.DestageStallNs += ns
		if b.tel != nil {
			b.tel.destageBarrier.Inc()
		}
	}
	finish := start + cost
	b.lastEnd = finish
	b.Counters.Flushes++
	b.Counters.FlushNs += cost
	if b.tel != nil {
		b.tel.flushes.Inc()
		b.publish()
	}
	if s := b.spans; s != nil {
		s.tr.Span(s.flush, serviceStart, finish)
	}
	return storage.Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}
}

// backTel holds the back end's metric handles, resolved once at attach
// time.
type backTel struct {
	reads, writes  *telemetry.Counter
	readServNs     *telemetry.Histogram
	writeServNs    *telemetry.Histogram
	waitNs         *telemetry.Histogram
	sub4K, sub8K   *telemetry.Counter
	flushes        *telemetry.Counter
	gcStallNs      *telemetry.Counter
	idleGCNs       *telemetry.Counter
	destageIdle    *telemetry.Counter
	destageSpace   *telemetry.Counter
	destageBarrier *telemetry.Counter
	readFaults     *telemetry.Counter
	recoveryNs     *telemetry.Counter
	recoveryHist   *telemetry.Histogram
	stageBytes     *telemetry.Gauge
	chanBusy       []*telemetry.Gauge
}

// SetTelemetry attaches metrics and span tracing (nil values detach).
// Metrics, each prefixed with the device name: requests_total{op},
// service_ns{op} and wait_ns latency histograms, subrequests_total{page},
// flushes_total, GC stall and idle-GC time, destages by cause, read faults
// and their recovery time, stage occupancy, and per-channel cumulative
// busy time. Spans: every flash transfer/program/read on its channel and
// plane track, GC instants, read-recovery markers and flush barriers. The
// FTL, mapping cache and fault injector wire through the same registry.
func (b *Backend) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	b.spans = nil
	if tr != nil {
		b.spans = b.newBackSpans(tr)
	}
	b.ftl.SetTelemetry(reg)
	b.mapCache.SetTelemetry(reg)
	b.inj.SetTelemetry(reg)
	if reg == nil {
		b.tel = nil
		return
	}
	n := b.p.Name + "_"
	t := &backTel{
		reads:          reg.Counter(n+"requests_total", telemetry.L("op", "read")),
		writes:         reg.Counter(n+"requests_total", telemetry.L("op", "write")),
		readServNs:     reg.Histogram(n+"service_ns", nil, telemetry.L("op", "read")),
		writeServNs:    reg.Histogram(n+"service_ns", nil, telemetry.L("op", "write")),
		waitNs:         reg.Histogram(n+"wait_ns", nil),
		sub4K:          reg.Counter(n+"subrequests_total", telemetry.L("page", "4K")),
		sub8K:          reg.Counter(n+"subrequests_total", telemetry.L("page", "8K")),
		flushes:        reg.Counter(n + "flushes_total"),
		gcStallNs:      reg.Counter(n + "gc_stall_ns_total"),
		idleGCNs:       reg.Counter(n + "idle_gc_ns_total"),
		destageIdle:    reg.Counter(n+b.p.DestageCounter, telemetry.L("cause", "idle")),
		destageSpace:   reg.Counter(n+b.p.DestageCounter, telemetry.L("cause", "space")),
		destageBarrier: reg.Counter(n+b.p.DestageCounter, telemetry.L("cause", "barrier")),
		readFaults:     reg.Counter(n + "read_faults_total"),
		recoveryNs:     reg.Counter(n + "fault_recovery_ns_total"),
		recoveryHist:   reg.Histogram(n+"fault_recovery_ns", nil),
		stageBytes:     reg.Gauge(n + b.p.StageGauge),
	}
	for i := range b.channels {
		t.chanBusy = append(t.chanBusy, reg.Gauge(n+"channel_busy_ns", telemetry.L("channel", fmt.Sprintf("%d", i))))
	}
	b.tel = t
}

// publish refreshes the occupancy gauges; only called with telemetry on.
func (b *Backend) publish() {
	for i := range b.channels {
		_, busy := b.channels[i].State()
		b.tel.chanBusy[i].Set(busy)
	}
	if b.stage != nil {
		b.tel.stageBytes.Set(b.stage.usedBytes)
	}
}

// observeSub attributes one flash page operation to its 4K/8K pool.
func (b *Backend) observeSub(pageBytes int) {
	if b.tel == nil {
		return
	}
	if pageBytes >= 8192 {
		b.tel.sub8K.Inc()
	} else {
		b.tel.sub4K.Inc()
	}
}
