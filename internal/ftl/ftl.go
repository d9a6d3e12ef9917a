// Package ftl implements the flash translation layer of the modeled eMMC
// device: sector-granularity page mapping, per-plane per-pool block
// allocation, greedy garbage collection, and the simple round-robin wear
// leveling that Implication 4 of the paper argues is sufficient for
// smartphone workloads.
//
// The FTL maps 4 KB logical sectors (LPNs) to physical pages. A physical
// page holds PageBytes/4096 sectors: one on a 4 KB-page block, two on an
// 8 KB-page block. A small write landing on a large page leaves part of the
// page dead on arrival — that is precisely the space-utilization cost of the
// pure-8KB scheme that Fig. 9 quantifies.
package ftl

import (
	"errors"
	"fmt"
	"slices"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/telemetry"
)

// ErrNoSpace marks a write or relocation that found no destination page:
// the pool's free blocks (shrunk by any retirements) are exhausted. Callers
// classify with errors.Is and degrade gracefully instead of panicking.
var ErrNoSpace = errors.New("ftl: out of space")

// Loc identifies a physical page.
type Loc struct {
	Plane int32
	Pool  int32
	Block int32
	Page  int32
}

// pack folds a location into one word: plane in bits 48-62, pool 40-47,
// block 16-39, page 0-15 (Config.Validate keeps every index in range).
// Packed order is (plane, pool, block, page) order.
func (l Loc) pack() uint64 {
	return uint64(l.Plane)<<48 | uint64(l.Pool)<<40 | uint64(l.Block)<<16 | uint64(l.Page)
}

// unpack inverts pack, ignoring bit 63 (the forward table's mapped bit).
func unpack(k uint64) Loc {
	return Loc{
		Plane: int32(k >> 48 & 0x7fff),
		Pool:  int32(k >> 40 & 0xff),
		Block: int32(k >> 16 & 0xffffff),
		Page:  int32(k & 0xffff),
	}
}

// GCWork summarizes the garbage collection a write triggered, including
// any fault handling folded into it — the device charges timeline latency
// for every field.
type GCWork struct {
	// PageMoves counts valid pages copied to a new block.
	PageMoves int
	// MoveBytes is the payload moved (page size × moves).
	MoveBytes int64
	// Erases counts blocks erased.
	Erases int
	// ProgramFaults counts page programs the NAND rejected (each one still
	// occupies the plane for a full program before the status fail).
	ProgramFaults int
	// EraseFaults counts block erases the NAND rejected.
	EraseFaults int
	// Retired counts blocks withdrawn as grown bad blocks.
	Retired int
}

// Add accumulates other into w.
func (w *GCWork) Add(other GCWork) {
	w.PageMoves += other.PageMoves
	w.MoveBytes += other.MoveBytes
	w.Erases += other.Erases
	w.ProgramFaults += other.ProgramFaults
	w.EraseFaults += other.EraseFaults
	w.Retired += other.Retired
}

// Zero reports whether no GC happened.
func (w GCWork) Zero() bool { return w == GCWork{} }

// Stats aggregates FTL activity over a replay.
type Stats struct {
	HostProgrammedPages int64 // physical pages programmed for host writes
	HostPayloadBytes    int64 // live host bytes in those pages
	HostFootprintBytes  int64 // page size × pages (>= payload on 8 KB pools)
	GC                  GCWork
	// StaticLevelMoves counts page copies made purely for wear leveling
	// (WearStatic only).
	StaticLevelMoves int64
	// ProgramFaults, EraseFaults and RetiredBlocks total the injected fault
	// outcomes over the replay (GC also carries the per-write breakdown).
	ProgramFaults int64
	EraseFaults   int64
	RetiredBlocks int64
}

// SpaceUtilization is the paper's §V metric: written payload over flash
// space consumed. 1.0 means no page-size waste.
func (s Stats) SpaceUtilization() float64 {
	if s.HostFootprintBytes == 0 {
		return 1
	}
	return float64(s.HostPayloadBytes) / float64(s.HostFootprintBytes)
}

type poolState struct {
	spec   flash.PoolSpec
	spp    int // sectors per page
	blocks []flash.Block
	// free holds erased block indices in FIFO order; allocating from the
	// head and returning erased blocks to the tail round-robins erase load
	// across blocks (the "simple wear-leveling" of Implication 4). It is a
	// window on freeBuf, one backing array sized to the pool, which
	// pushFree compacts when the window reaches its end, so no erase
	// reallocates the list.
	free    []int32
	freeBuf []int32
	active  int32 // index of the block currently accepting programs, or -1
	// retired counts grown bad blocks withdrawn from this plane-pool; the
	// usable pool is BlocksPerPlane - retired.
	retired int32

	// The reverse map: rev[b] is block b's slab of PagesPerBlock×spp LPNs
	// (nil: none). Page p's live LPNs are its entries p*spp ..
	// p*spp+PageLive(p)-1, in programming order with invalidations
	// swap-removed. A block gets a slab when it becomes the active block
	// and returns it to freeRev when erased or retired, so only blocks that
	// can hold live data carry one. New slabs are carved from revArena, the
	// unused tail of the pool's current reverse-map chunk, as page state is
	// from pageArena.
	rev      [][]int64
	freeRev  [][]int64
	revArena []int64
	// pageArena is the unused tail of the pool's current page-state chunk.
	// A block takes its page-state slab from here the first time it opens
	// and keeps it, cleared, across erases.
	pageArena []int8
	// noSpace is the pool's ErrNoSpace error. An aged device can fail
	// thousands of writes a replay, and each fork starts a new pool state,
	// so program returns a pointer to this value instead of formatting one.
	noSpace noSpaceError
}

// noSpaceError is a plane-pool's ErrNoSpace. It formats its text only when
// asked, and unwraps to ErrNoSpace.
type noSpaceError struct {
	plane, pool int32
}

func (e *noSpaceError) Error() string {
	return fmt.Sprintf("ftl: plane %d pool %d: %v", e.plane, e.pool, ErrNoSpace)
}

func (e *noSpaceError) Unwrap() error { return ErrNoSpace }

// The fault-path errors below format their text only when asked: an aged
// device with faults on can take these paths every replay, and a
// fmt.Errorf costs several allocations where these cost one.

// strandedError is moveLive's failure to relocate the rest of a victim's
// live sectors.
type strandedError struct {
	sectors int
	err     error
}

func (e *strandedError) Error() string {
	return fmt.Sprintf("ftl: GC relocation stranded %d sectors: %v", e.sectors, e.err)
}

func (e *strandedError) Unwrap() error { return e.err }

// retireError is retireBlock's failure to relocate a grown-bad block's
// survivors.
type retireError struct {
	plane, pool, block int32
	err                error
}

func (e *retireError) Error() string {
	return fmt.Sprintf("ftl: retiring plane %d pool %d block %d: %v", e.plane, e.pool, e.block, e.err)
}

func (e *retireError) Unwrap() error { return e.err }

// afterFaultError is err, met while handling the flash fault that caused
// it (flash.ErrProgramFail or flash.ErrEraseFail); it matches both.
type afterFaultError struct {
	err, fault error
}

func (e *afterFaultError) Error() string {
	return e.err.Error() + " (after " + e.fault.Error() + ")"
}

func (e *afterFaultError) Unwrap() []error { return []error{e.err, e.fault} }

// arenaBlocks is how many blocks' page state or reverse slabs one arena
// chunk holds, so opening blocks costs one allocation per arenaBlocks of
// them. A reverse-slab chunk also stays within revChunkBytes (and holds at
// least one slab): a full-size device's slabs are 8-16 KiB and it opens
// about one block per plane-pool, so a 16-block chunk would leave most of
// a quarter MiB per plane-pool unused, while a shrunk device's 1 KiB slabs
// still come 16 to a chunk.
const (
	arenaBlocks   = 16
	revChunkBytes = 16 << 10
)

func newPoolState(plane, pool int32, spec flash.PoolSpec, blocks []flash.Block, free []int32) poolState {
	return poolState{spec: spec, spp: spec.SectorsPerPage(), blocks: blocks,
		free: free, freeBuf: free, active: -1, rev: make([][]int64, len(blocks)),
		noSpace: noSpaceError{plane: plane, pool: pool}}
}

// attach readies block b to hold data: it gives the block its page-state
// slab if it has none yet, and a reverse slab, recycling a free one when
// it can.
func (ps *poolState) attach(b int32) {
	ps.attachPages(b)
	if ps.rev[b] != nil {
		return
	}
	if n := len(ps.freeRev); n > 0 {
		ps.rev[b] = ps.freeRev[n-1]
		ps.freeRev = ps.freeRev[:n-1]
		return
	}
	n := ps.spec.PagesPerBlock * ps.spp
	if len(ps.revArena) < n {
		ps.revArena = make([]int64, min(arenaBlocks, len(ps.blocks), max(1, revChunkBytes/(8*n)))*n)
	}
	ps.rev[b] = ps.revArena[:n:n]
	ps.revArena = ps.revArena[n:]
}

// attachPages gives block b its page-state slab if it has none yet.
func (ps *poolState) attachPages(b int32) {
	if blk := &ps.blocks[b]; !blk.Attached() {
		n := ps.spec.PagesPerBlock
		if len(ps.pageArena) < n {
			ps.pageArena = make([]int8, min(arenaBlocks, len(ps.blocks))*n)
		}
		blk.Attach(ps.pageArena[:n:n])
		ps.pageArena = ps.pageArena[n:]
	}
}

// release returns block b's reverse slab to the free list. No more slabs
// exist than blocks, so the list is sized to the pool once.
func (ps *poolState) release(b int32) {
	if ps.rev[b] != nil {
		if ps.freeRev == nil {
			ps.freeRev = make([][]int64, 0, len(ps.blocks))
		}
		ps.freeRev = append(ps.freeRev, ps.rev[b])
		ps.rev[b] = nil
	}
}

// pushFree appends erased block b to the tail of the free list. When the
// list's window has reached the end of freeBuf, the window moves back to
// its start first; a block is listed at most once, so it then has room.
func (ps *poolState) pushFree(b int32) {
	if len(ps.free) == cap(ps.free) {
		ps.free = ps.freeBuf[:copy(ps.freeBuf, ps.free)]
	}
	ps.free = append(ps.free, b)
}

// pageRev returns the spp reverse-slab entries of page p of block b, which
// must carry a slab; the first PageLive(p) are the page's live LPNs.
func (ps *poolState) pageRev(b int32, p int) []int64 {
	return ps.rev[b][p*ps.spp : (p+1)*ps.spp : (p+1)*ps.spp]
}

type planeState struct {
	pools []poolState
}

// WearPolicy selects the wear-leveling strategy.
type WearPolicy int

const (
	// WearRoundRobin is the paper's Implication-4 recommendation: erased
	// blocks return to the tail of a FIFO free list and GC victim ties
	// break toward the least-erased block. No extra data movement.
	WearRoundRobin WearPolicy = iota
	// WearNone allocates LIFO and ignores erase counts — the strawman that
	// shows what leveling prevents.
	WearNone
	// WearStatic adds static leveling on top of round-robin: when the
	// pool's erase spread exceeds StaticDelta, GC relocates the coldest
	// full block even if it is live-heavy, trading extra copies for a
	// tighter spread.
	WearStatic
)

// String names the policy.
func (w WearPolicy) String() string {
	switch w {
	case WearNone:
		return "none"
	case WearStatic:
		return "static"
	}
	return "round-robin"
}

// Config configures an FTL instance.
type Config struct {
	Geometry flash.Geometry
	Pools    []flash.PoolSpec
	// GCFreeBlocks triggers garbage collection in a plane-pool when its
	// free-block count drops to this value (the SSD-style threshold
	// Implication 2 critiques; the idle-GC policy lives in internal/emmc).
	GCFreeBlocks int
	// Wear selects the wear-leveling strategy (default WearRoundRobin).
	Wear WearPolicy
	// StaticDelta is the erase-count spread that triggers static leveling
	// under WearStatic (default 8 when zero).
	StaticDelta int
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if len(c.Pools) == 0 {
		return fmt.Errorf("ftl: no pools configured")
	}
	if c.Geometry.Planes() > 1<<15 || len(c.Pools) > 1<<8 {
		return fmt.Errorf("ftl: %d planes x %d pools exceed the mapping's 32768 x 256", c.Geometry.Planes(), len(c.Pools))
	}
	seen := map[int]bool{}
	planes := int64(c.Geometry.Planes())
	var blocks, pageState int64
	for _, p := range c.Pools {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.BlocksPerPlane > 1<<24 || p.PagesPerBlock > 1<<16 {
			return fmt.Errorf("ftl: pool %+v exceeds the mapping's 2^24 blocks x 2^16 pages", p)
		}
		if p.SectorsPerPage() > maxSectorsPerPage {
			return fmt.Errorf("ftl: %d-byte pages exceed the %d sectors a page's live count holds", p.PageBytes, maxSectorsPerPage)
		}
		if seen[p.PageBytes] {
			return fmt.Errorf("ftl: duplicate pool page size %d", p.PageBytes)
		}
		seen[p.PageBytes] = true
		// Checking the block total first keeps the product below 2^47.
		blocks += planes * int64(p.BlocksPerPlane)
		if blocks > maxBlocks {
			return fmt.Errorf("ftl: %d blocks exceed the %d a device may hold", blocks, maxBlocks)
		}
		pageState += planes * int64(p.BlocksPerPlane) * int64(p.PagesPerBlock) * int64(1+8*p.SectorsPerPage())
	}
	if pageState > maxPageStateBytes {
		return fmt.Errorf("ftl: %d bytes of page state exceed the %d a device may hold", pageState, int64(maxPageStateBytes))
	}
	if c.GCFreeBlocks < 1 {
		return fmt.Errorf("ftl: GC threshold must be at least 1 free block")
	}
	return nil
}

// Device-size limits. A snapshot restore sizes the block table from the
// configuration before it reads any state, so the configuration must bound
// what a device can hold: a 32 GB case-study device has 8192 blocks and
// about 75 MB of page state (one live-count byte and spp reverse-map LPNs
// per page) once every block has been opened. A page's live count is an
// int8.
const (
	maxBlocks         = 1 << 20
	maxPageStateBytes = 1 << 30
	maxSectorsPerPage = 127
)

// FTL is the translation layer state for one device.
type FTL struct {
	cfg    Config
	planes []planeState
	fwd    fwdTable // LPN -> physical page holding it
	stats  Stats
	// poolErases counts erases per pool across all planes (O(1) wear query
	// for the reliability model).
	poolErases []int64
	// inj injects program/erase faults on the allocation and GC paths. Nil
	// (the default) means perfect hardware; the owning device shares its
	// injector here via SetFaults.
	inj *faults.Injector
	tel *ftlTel

	// freeSurv recycles GC survivor buffers — a stack, because moveLive
	// can re-enter itself through a failed relocation program.
	freeSurv [][]int64
}

// ftlTel holds the translation layer's metric handles. GC is rare relative
// to the program path, so per-pool wear spread is recomputed only when a
// collection actually erased something.
type ftlTel struct {
	gcRuns        *telemetry.Counter
	gcMoves       *telemetry.Counter
	gcMoveBytes   *telemetry.Counter
	erases        *telemetry.Counter
	programFaults *telemetry.Counter
	eraseFaults   *telemetry.Counter
	retired       *telemetry.Counter
	wearSpread    []*telemetry.Gauge // per pool: max-min erase count
}

// SetTelemetry attaches (or detaches, with a nil registry) GC and wear
// observability: ftl_gc_invocations_total, ftl_gc_page_moves_total,
// ftl_gc_move_bytes_total, ftl_erases_total, the fault counters
// ftl_program_faults_total / ftl_erase_faults_total /
// ftl_blocks_retired_total, and a per-pool ftl_wear_spread_erases gauge.
func (f *FTL) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		f.tel = nil
		return
	}
	t := &ftlTel{
		gcRuns:        reg.Counter("ftl_gc_invocations_total"),
		gcMoves:       reg.Counter("ftl_gc_page_moves_total"),
		gcMoveBytes:   reg.Counter("ftl_gc_move_bytes_total"),
		erases:        reg.Counter("ftl_erases_total"),
		programFaults: reg.Counter("ftl_program_faults_total"),
		eraseFaults:   reg.Counter("ftl_erase_faults_total"),
		retired:       reg.Counter("ftl_blocks_retired_total"),
	}
	for _, p := range f.cfg.Pools {
		t.wearSpread = append(t.wearSpread,
			reg.Gauge("ftl_wear_spread_erases", telemetry.L("pool", fmt.Sprintf("%dK", p.PageBytes/1024))))
	}
	f.tel = t
}

// observeGC records one garbage collection's work against the telemetry
// counters and refreshes the pool's wear-spread gauge. It takes the work by
// pointer: Write calls it on every host page.
func (f *FTL) observeGC(pool int, gc *GCWork) {
	if f.tel == nil || gc.Zero() {
		return
	}
	f.tel.gcRuns.Inc()
	f.tel.gcMoves.Add(int64(gc.PageMoves))
	f.tel.gcMoveBytes.Add(gc.MoveBytes)
	f.tel.erases.Add(int64(gc.Erases))
	f.tel.programFaults.Add(int64(gc.ProgramFaults))
	f.tel.eraseFaults.Add(int64(gc.EraseFaults))
	f.tel.retired.Add(int64(gc.Retired))
	if gc.Erases > 0 && pool < len(f.tel.wearSpread) {
		w := f.Wear(pool)
		f.tel.wearSpread[pool].Set(int64(w.MaxErases - w.MinErases))
	}
}

// New builds a fresh (fully erased) FTL.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{
		cfg:        cfg,
		planes:     make([]planeState, cfg.Geometry.Planes()),
		poolErases: make([]int64, len(cfg.Pools)),
	}
	for pi := range f.planes {
		pools := make([]poolState, len(cfg.Pools))
		for qi, spec := range cfg.Pools {
			free := make([]int32, spec.BlocksPerPlane)
			for bi := range free {
				free[bi] = int32(bi)
			}
			pools[qi] = newPoolState(int32(pi), int32(qi), spec, flash.NewBlocks(spec.BlocksPerPlane, spec.PagesPerBlock), free)
		}
		f.planes[pi].pools = pools
	}
	return f, nil
}

// SetFaults shares the owning device's fault injector with the FTL. A nil
// injector (the default) models perfect hardware. The device and FTL must
// share one injector so the decision stream stays a single deterministic
// sequence.
func (f *FTL) SetFaults(inj *faults.Injector) { f.inj = inj }

// Pools returns the configured pool specs.
func (f *FTL) Pools() []flash.PoolSpec { return f.cfg.Pools }

// Stats returns a copy of the accumulated statistics.
func (f *FTL) Stats() Stats { return f.stats }

// Lookup returns the physical location currently holding the LPN. LPNs
// outside [0, MaxLPN) are never mapped.
func (f *FTL) Lookup(lpn int64) (Loc, bool) {
	e := f.fwd.get(lpn)
	return unpack(e), e&mappedBit != 0
}

// PageBytes returns the page size of the pool the location belongs to.
func (f *FTL) PageBytes(loc Loc) int { return f.cfg.Pools[loc.Pool].PageBytes }

// NeedsGC reports whether the plane-pool is at or below the GC threshold,
// counting the pages left in the active block as headroom.
func (f *FTL) NeedsGC(plane, pool int) bool {
	ps := &f.planes[plane].pools[pool]
	return len(ps.free) <= f.cfg.GCFreeBlocks
}

// Write programs the given LPNs (all mapped by this single physical page)
// into the chosen plane and pool, invalidating any prior copies. The LPN
// count must not exceed the pool's sectors-per-page; a short count models
// the wasted half of a large page. It returns the location and any GC work
// that was required to free space.
func (f *FTL) Write(plane, pool int, lpns []int64) (Loc, GCWork, error) {
	ps := &f.planes[plane].pools[pool]
	if len(lpns) == 0 || len(lpns) > ps.spp {
		return Loc{}, GCWork{}, fmt.Errorf("ftl: %d LPNs for a %d-byte page", len(lpns), ps.spec.PageBytes)
	}
	for i, lpn := range lpns {
		if err := CheckRange(lpn, 1); err != nil {
			return Loc{}, GCWork{}, err
		}
		for _, prev := range lpns[:i] {
			if prev == lpn {
				return Loc{}, GCWork{}, fmt.Errorf("ftl: LPN %d twice in one page", lpn)
			}
		}
	}
	// Invalidate prior copies first so GC never relocates stale data.
	for _, lpn := range lpns {
		f.invalidate(lpn)
	}
	var gc GCWork
	loc, err := f.program(int32(plane), int32(pool), lpns, &gc, false)
	if err != nil {
		return Loc{}, gc, err
	}
	f.stats.HostProgrammedPages++
	f.stats.HostPayloadBytes += int64(len(lpns)) * flash.SectorBytes
	f.stats.HostFootprintBytes += int64(ps.spec.PageBytes)
	f.stats.GC.Add(gc)
	f.observeGC(pool, &gc)
	return loc, gc, nil
}

// CollectGarbage runs GC in the plane-pool until it is above the threshold,
// regardless of pending writes. It is the hook the idle-GC policy
// (Implication 2) uses to clean during inter-arrival gaps. The returned
// work includes any fault handling; a non-nil error means a relocation ran
// out of destination space (ErrNoSpace).
func (f *FTL) CollectGarbage(plane, pool int) (GCWork, error) {
	var gc GCWork
	err := f.ensureFree(int32(plane), int32(pool), &gc)
	f.stats.GC.Add(gc)
	f.observeGC(pool, &gc)
	return gc, err
}

// RetireBlockAt withdraws the block holding the given page as a grown bad
// block, relocating its live data first — the read-scrub recovery path the
// device takes after an uncorrectable read. The returned work carries the
// relocation cost for timeline charging.
func (f *FTL) RetireBlockAt(loc Loc) (GCWork, error) {
	var gc GCWork
	if f.blockAt(loc).Retired() {
		return gc, nil // already withdrawn by an earlier recovery
	}
	err := f.retireBlock(loc.Plane, loc.Pool, loc.Block, &gc)
	f.stats.GC.Add(gc)
	f.observeGC(int(loc.Pool), &gc)
	return gc, err
}

// invalidate removes the LPN's current mapping, if any: the LPN is
// swap-removed from its page's live prefix, which keeps the survivor order
// moveLive repacks in.
func (f *FTL) invalidate(lpn int64) {
	loc, ok := f.fwd.clear(lpn)
	if !ok {
		return
	}
	ps := &f.planes[loc.Plane].pools[loc.Pool]
	blk := &ps.blocks[loc.Block]
	page := int(loc.Page)
	rev := ps.pageRev(loc.Block, page)
	last := blk.PageLive(page) - 1
	for i := 0; i < last; i++ {
		if rev[i] == lpn {
			rev[i] = rev[last]
			break
		}
	}
	blk.InvalidateSector(page)
}

func (f *FTL) blockAt(loc Loc) *flash.Block {
	return &f.planes[loc.Plane].pools[loc.Pool].blocks[loc.Block]
}

// program writes lpns to the next page of the plane-pool's active block,
// running GC first when free blocks run low. GC-initiated relocations pass
// inGC to avoid re-entering the collector.
//
// A program-status failure burns the attempted page, retires the block as
// grown-bad (relocating whatever it already held), and retries on a fresh
// block — each failure permanently shrinks the pool, so the loop terminates
// in ErrNoSpace at the latest.
func (f *FTL) program(plane, pool int32, lpns []int64, gc *GCWork, inGC bool) (Loc, error) {
	ps := &f.planes[plane].pools[pool]
	for {
		if ps.active < 0 || ps.blocks[ps.active].Full() {
			if !inGC && len(ps.free) <= f.cfg.GCFreeBlocks {
				if err := f.ensureFree(plane, pool, gc); err != nil {
					return Loc{}, err
				}
			}
			// Re-check: GC relocations may have rotated in a fresh active block
			// already; replacing it here would orphan a partially written block.
			if ps.active < 0 || ps.blocks[ps.active].Full() {
				if len(ps.free) == 0 {
					return Loc{}, &ps.noSpace
				}
				if f.cfg.Wear == WearNone {
					// LIFO: recycle the most recently erased block.
					ps.active = ps.free[len(ps.free)-1]
					ps.free = ps.free[:len(ps.free)-1]
				} else {
					ps.active = ps.free[0]
					ps.free = ps.free[1:]
				}
				ps.attach(ps.active)
			}
		}
		blk := &ps.blocks[ps.active]
		if f.inj.ProgramFails(f.PoolAvgPE(int(pool))) {
			blk.Burn()
			gc.ProgramFaults++
			f.stats.ProgramFaults++
			victim := ps.active
			ps.active = -1
			if err := f.retireBlock(plane, pool, victim, gc); err != nil {
				return Loc{}, &afterFaultError{err, flash.ErrProgramFail}
			}
			continue
		}
		page := blk.Program(len(lpns))
		loc := Loc{Plane: plane, Pool: pool, Block: ps.active, Page: int32(page)}
		copy(ps.pageRev(ps.active, page), lpns)
		for _, lpn := range lpns {
			f.fwd.set(lpn, loc)
		}
		return loc, nil
	}
}

// retireBlock withdraws one block as grown-bad: it is pulled out of the
// active slot and free list, its surviving live data is relocated, and the
// retired flag makes the shrink permanent. The caller has already accounted
// for the fault that caused the retirement.
func (f *FTL) retireBlock(plane, pool, victim int32, gc *GCWork) error {
	ps := &f.planes[plane].pools[pool]
	if ps.active == victim {
		ps.active = -1
	}
	for i, b := range ps.free {
		if b == victim {
			ps.free = append(ps.free[:i], ps.free[i+1:]...)
			break
		}
	}
	blk := &ps.blocks[victim]
	if blk.LiveSectors() > 0 {
		if err := f.moveLive(plane, pool, victim, gc); err != nil {
			// No destination space for the survivors: the block cannot be
			// retired without data loss, so it is left in place (with its
			// burned page) and the error surfaces to the host.
			return &retireError{plane, pool, victim, err}
		}
	}
	blk.Retire()
	ps.release(victim)
	ps.retired++
	gc.Retired++
	f.stats.RetiredBlocks++
	return nil
}

// ensureFree reclaims blocks until the pool is above the GC threshold.
// It stops early when no victim would make progress (all remaining blocks
// fully live, or no destination space for the relocation) — callers then see
// an out-of-space error instead of a livelock. An erase-status failure
// retires the victim instead of freeing it, shrinking the pool.
func (f *FTL) ensureFree(plane, pool int32, gc *GCWork) error {
	ps := &f.planes[plane].pools[pool]
	if f.cfg.Wear == WearStatic {
		if err := f.staticLevel(plane, pool, gc); err != nil {
			return err
		}
	}
	for len(ps.free) <= f.cfg.GCFreeBlocks {
		victim := f.pickVictim(ps)
		if victim < 0 {
			return nil // nothing reclaimable
		}
		// Destination headroom: remaining pages in the active block plus all
		// free blocks must cover the victim's repacked live sectors, or the
		// relocation itself would run out of space mid-move.
		avail := len(ps.free) * ps.spec.PagesPerBlock
		if ps.active >= 0 {
			avail += ps.spec.PagesPerBlock - ps.blocks[ps.active].NextFreeCount()
		}
		spp := ps.spp
		needed := (ps.blocks[victim].LiveSectors() + spp - 1) / spp
		if avail < needed {
			return nil
		}
		if err := f.moveLive(plane, pool, victim, gc); err != nil {
			return err
		}
		if f.inj.EraseFails(f.PoolAvgPE(int(pool))) {
			gc.EraseFaults++
			f.stats.EraseFaults++
			// The victim is already empty (survivors moved above), so
			// retirement cannot fail here; it just never rejoins the free
			// list. No poolErases bump — the erase did not complete.
			if err := f.retireBlock(plane, pool, victim, gc); err != nil {
				return &afterFaultError{err, flash.ErrEraseFail}
			}
			continue
		}
		f.erase(ps, pool, victim, gc)
	}
	return nil
}

// erase erases a block whose live data has been moved, returns it to the
// free list, and recycles its reverse slab.
func (f *FTL) erase(ps *poolState, pool, b int32, gc *GCWork) {
	ps.blocks[b].Erase()
	ps.release(b)
	ps.pushFree(b)
	gc.Erases++
	f.poolErases[pool]++
}

// pickVictim greedily selects the full block with the fewest live sectors
// that would reclaim at least one page after repacking. Ties go to the block
// with the lowest erase count, which spreads GC erases evenly (ties are the
// common case in steady state, so this tie-break carries the wear leveling).
// Returns -1 when no productive victim exists.
func (f *FTL) pickVictim(ps *poolState) int32 {
	best := int32(-1)
	bestLive := int(^uint(0) >> 1)
	bestErases := int(^uint(0) >> 1)
	spp := ps.spp
	for i := range ps.blocks {
		blk := &ps.blocks[i]
		if int32(i) == ps.active || blk.Retired() || !blk.Full() {
			continue
		}
		live := blk.LiveSectors()
		if live > (blk.Pages()-1)*spp {
			continue // repacking would not reclaim a single page
		}
		better := live < bestLive
		if !better && live == bestLive && f.cfg.Wear != WearNone {
			better = blk.EraseCount() < bestErases
		}
		if better {
			best = int32(i)
			bestLive = live
			bestErases = blk.EraseCount()
		}
	}
	return best
}

// staticLevel relocates the coldest full block when the pool's erase spread
// exceeds the configured delta, so cold data stops pinning low-wear blocks.
// Retired blocks are out of the rotation and excluded from the spread.
func (f *FTL) staticLevel(plane, pool int32, gc *GCWork) error {
	ps := &f.planes[plane].pools[pool]
	delta := f.cfg.StaticDelta
	if delta <= 0 {
		delta = 8
	}
	minE, maxE := int(^uint(0)>>1), 0
	coldest := int32(-1)
	for i := range ps.blocks {
		blk := &ps.blocks[i]
		if blk.Retired() {
			continue
		}
		e := blk.EraseCount()
		if e > maxE {
			maxE = e
		}
		if e < minE {
			minE = e
		}
		if int32(i) != ps.active && blk.Full() {
			if coldest < 0 || e < ps.blocks[coldest].EraseCount() {
				coldest = int32(i)
			}
		}
	}
	if coldest < 0 || maxE-minE < delta {
		return nil
	}
	spp := ps.spp
	needed := (ps.blocks[coldest].LiveSectors() + spp - 1) / spp
	avail := len(ps.free) * ps.spec.PagesPerBlock
	if ps.active >= 0 {
		avail += ps.spec.PagesPerBlock - ps.blocks[ps.active].NextFreeCount()
	}
	if avail < needed {
		return nil
	}
	before := gc.PageMoves
	if err := f.moveLive(plane, pool, coldest, gc); err != nil {
		return err
	}
	if f.inj.EraseFails(f.PoolAvgPE(int(pool))) {
		gc.EraseFaults++
		f.stats.EraseFaults++
		if err := f.retireBlock(plane, pool, coldest, gc); err != nil {
			return &afterFaultError{err, flash.ErrEraseFail}
		}
		f.stats.StaticLevelMoves += int64(gc.PageMoves - before)
		return nil
	}
	f.erase(ps, pool, coldest, gc)
	f.stats.StaticLevelMoves += int64(gc.PageMoves - before)
	return nil
}

// moveLive relocates the victim block's live sectors, repacking them densely
// into destination pages: half-dead large pages (a 4 KB overwrite on an 8 KB
// page) are compacted during GC, as SSDsim-style collectors do.
//
// Callers precheck destination headroom, but with fault injection a
// relocation program can itself fail and retire the destination, so
// exhaustion mid-move is a reachable condition — it surfaces as ErrNoSpace
// rather than a panic. The already-moved survivors stay mapped; the
// unmoved remainder is unmapped, and is what the error reports lost.
//
// A survivor's forward entry is written once, when program maps it to its
// new page; until then it still names the victim page, which nothing
// reads mid-move (a re-entrant relocation gathers from the reverse map).
func (f *FTL) moveLive(plane, pool, victim int32, gc *GCWork) error {
	ps := &f.planes[plane].pools[pool]
	blk := &ps.blocks[victim]
	// Gather every live sector first, then detach the source pages. The
	// buffer comes off a stack of recycled ones: moveLive can re-enter
	// itself when a relocation program fails and retires its destination,
	// so a single shared scratch would be clobbered mid-move.
	survivors := f.grabSurvivors()
	for page := 0; page < blk.Pages(); page++ {
		n := blk.PageLive(page)
		if n == 0 {
			continue
		}
		for range n {
			blk.InvalidateSector(page)
		}
		survivors = append(survivors, ps.pageRev(victim, page)[:n]...)
	}
	spp := ps.spp
	for off := 0; off < len(survivors); off += spp {
		end := off + spp
		if end > len(survivors) {
			end = len(survivors)
		}
		if _, err := f.program(plane, pool, survivors[off:end], gc, true); err != nil {
			for _, lpn := range survivors[off:] {
				f.fwd.clear(lpn)
			}
			f.recycleSurvivors(survivors)
			return &strandedError{len(survivors) - off, err}
		}
		gc.PageMoves++
		gc.MoveBytes += int64(ps.spec.PageBytes)
	}
	f.recycleSurvivors(survivors)
	return nil
}

// grabSurvivors pops a survivor scratch buffer off the recycle stack.
func (f *FTL) grabSurvivors() []int64 {
	if n := len(f.freeSurv); n > 0 {
		s := f.freeSurv[n-1][:0]
		f.freeSurv = f.freeSurv[:n-1]
		return s
	}
	return nil
}

// recycleSurvivors pushes a finished survivor buffer back on the stack.
func (f *FTL) recycleSurvivors(s []int64) {
	if cap(s) > 0 {
		f.freeSurv = append(f.freeSurv, s[:0])
	}
}

// PoolAvgPE returns the pool's average program/erase cycles per block —
// the wear level the reliability model keys read latency on.
func (f *FTL) PoolAvgPE(pool int) float64 {
	blocks := f.cfg.Pools[pool].BlocksPerPlane * f.cfg.Geometry.Planes()
	if blocks == 0 {
		return 0
	}
	return float64(f.poolErases[pool]) / float64(blocks)
}

// AddArtificialWear pre-ages a pool by the given erase count (device aging
// studies start from a worn device without replaying months of history).
func (f *FTL) AddArtificialWear(pool int, erases int64) {
	f.poolErases[pool] += erases
}

// WearSummary reports erase-count statistics for one pool across all planes.
// Min/Max cover only in-service blocks (retired blocks are frozen and out of
// the leveling rotation); Total and Blocks cover everything.
type WearSummary struct {
	MinErases, MaxErases int
	TotalErases          int
	Blocks               int
	// Retired counts grown bad blocks withdrawn from the pool.
	Retired int
}

// Wear returns the erase distribution of pool index pool.
func (f *FTL) Wear(pool int) WearSummary {
	w := WearSummary{MinErases: int(^uint(0) >> 1)}
	inService := 0
	for pi := range f.planes {
		blocks := f.planes[pi].pools[pool].blocks
		for bi := range blocks {
			blk := &blocks[bi]
			e := blk.EraseCount()
			w.TotalErases += e
			w.Blocks++
			if blk.Retired() {
				w.Retired++
				continue
			}
			inService++
			if e < w.MinErases {
				w.MinErases = e
			}
			if e > w.MaxErases {
				w.MaxErases = e
			}
		}
	}
	if inService == 0 {
		w.MinErases = 0
	}
	return w
}

// RetiredBlocks returns the total grown-bad-block count across the device.
func (f *FTL) RetiredBlocks() int64 { return f.stats.RetiredBlocks }

// CheckConsistency verifies internal invariants: every mapped LPN appears
// in its page's live prefix, every live-prefix entry maps back to its page,
// and live-sector counts agree. Blocks without live data are skipped, so a
// check costs O(live data). It is used by property tests and snapshot
// restore and returns the first violation found.
func (f *FTL) CheckConsistency() error {
	mapped := 0
	for li := range f.fwd.leaves {
		d, leaf := f.fwd.leaf(li)
		for i, e := range leaf {
			if e&mappedBit == 0 {
				continue
			}
			mapped++
			lpn := int64(d)<<leafShift | int64(i)
			loc := unpack(e)
			ps := &f.planes[loc.Plane].pools[loc.Pool]
			page := int(loc.Page)
			n := ps.blocks[loc.Block].PageLive(page)
			if ps.rev[loc.Block] == nil || n < 0 || n > ps.spp || !slices.Contains(ps.pageRev(loc.Block, page)[:n], lpn) {
				return fmt.Errorf("ftl: lpn %d missing from reverse map at %+v", lpn, loc)
			}
		}
	}
	if mapped != f.fwd.n {
		return fmt.Errorf("ftl: forward map holds %d LPNs but counts %d", mapped, f.fwd.n)
	}
	live := 0
	for pi := range f.planes {
		for qi := range f.planes[pi].pools {
			ps := &f.planes[pi].pools[qi]
			for bi := range ps.blocks {
				blk := &ps.blocks[bi]
				if blk.LiveSectors() == 0 {
					continue
				}
				if blk.Retired() {
					return fmt.Errorf("ftl: retired block %d/%d/%d maps live data", pi, qi, bi)
				}
				if ps.rev[bi] == nil {
					return fmt.Errorf("ftl: block %d/%d/%d holds %d live sectors but no reverse slab", pi, qi, bi, blk.LiveSectors())
				}
				sum := 0
				for page := 0; page < blk.Pages(); page++ {
					n := blk.PageLive(page)
					if n < 0 || n > ps.spp {
						return fmt.Errorf("ftl: page %d/%d/%d/%d has %d live sectors on a %d-sector page", pi, qi, bi, page, n, ps.spp)
					}
					sum += n
					loc := Loc{Plane: int32(pi), Pool: int32(qi), Block: int32(bi), Page: int32(page)}
					for _, lpn := range ps.pageRev(int32(bi), page)[:n] {
						if got := f.fwd.get(lpn); got != loc.pack()|mappedBit {
							return fmt.Errorf("ftl: page %+v lists lpn %d, which maps elsewhere", loc, lpn)
						}
					}
				}
				if sum != blk.LiveSectors() {
					return fmt.Errorf("ftl: block %d/%d/%d counts %d live sectors, its pages %d", pi, qi, bi, blk.LiveSectors(), sum)
				}
				live += sum
			}
		}
	}
	// With every prefix entry mapping back to its page, equal totals leave
	// no room for a duplicate or an unlisted LPN.
	if live != mapped {
		return fmt.Errorf("ftl: %d mapped LPNs but %d live sectors", mapped, live)
	}
	// Retired blocks must be empty, inactive, off the free list, and agree
	// with the pool's retired counter.
	for pi := range f.planes {
		for qi := range f.planes[pi].pools {
			ps := &f.planes[pi].pools[qi]
			n := int32(0)
			for bi := range ps.blocks {
				blk := &ps.blocks[bi]
				if !blk.Retired() {
					continue
				}
				n++
				if blk.LiveSectors() != 0 {
					return fmt.Errorf("ftl: retired block %d/%d/%d holds %d live sectors", pi, qi, bi, blk.LiveSectors())
				}
				if ps.active == int32(bi) {
					return fmt.Errorf("ftl: retired block %d/%d/%d is the active block", pi, qi, bi)
				}
				for _, fb := range ps.free {
					if fb == int32(bi) {
						return fmt.Errorf("ftl: retired block %d/%d/%d is on the free list", pi, qi, bi)
					}
				}
			}
			if n != ps.retired {
				return fmt.Errorf("ftl: plane %d pool %d retired counter %d, flags say %d", pi, qi, ps.retired, n)
			}
		}
	}
	return nil
}
