// Package flash models the NAND flash array inside an eMMC device: the
// channel/chip/die/plane/block/page hierarchy, per-page latencies, and the
// page state machine (free → live → stale → erased).
//
// The geometry and latency numbers follow Table V of the paper, which in
// turn takes them from Micron MLC datasheets. A die's planes are the units
// of flash-operation concurrency; channels are the units of transfer
// concurrency, exactly as in SSDsim, the simulator the paper modified.
//
// To support the hybrid-page-size (HPS) scheme, every plane is divided into
// one or more pools; all blocks in a pool share one page size. A pure-4KB
// device (4PS) has a single 4 KB pool, 8PS a single 8 KB pool, and HPS one
// 4 KB pool plus one 8 KB pool per plane (Fig. 10).
package flash

import (
	"errors"
	"fmt"
)

// Typed fault causes. The FTL and device wrap these into richer errors;
// callers classify with errors.Is.
var (
	// ErrProgramFail marks a page program the NAND rejected (status fail).
	ErrProgramFail = errors.New("flash: program failed")
	// ErrEraseFail marks a block erase the NAND rejected.
	ErrEraseFail = errors.New("flash: erase failed")
	// ErrUncorrectable marks a page read that stayed unreadable after the
	// full read-retry ladder.
	ErrUncorrectable = errors.New("flash: uncorrectable read")
)

// SectorBytes is the FTL's mapping granularity: 4 KB, the file-system block
// size. A 4 KB physical page holds one sector; an 8 KB page holds two.
const SectorBytes = 4096

// Geometry is the channel/chip/die/plane arrangement of a device.
type Geometry struct {
	Channels        int
	ChipsPerChannel int
	DiesPerChip     int
	PlanesPerDie    int
}

// Planes returns the total number of planes in the device.
func (g Geometry) Planes() int {
	return g.Channels * g.ChipsPerChannel * g.DiesPerChip * g.PlanesPerDie
}

// ChannelOf maps a plane index to its channel: planes are numbered
// channel-major so consecutive planes sit on alternating channels only
// within a channel's chips; we instead stripe plane→channel round-robin,
// which maximizes transfer overlap for striped sub-requests.
func (g Geometry) ChannelOf(plane int) int { return plane % g.Channels }

// Validate reports nonsensical geometries.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.ChipsPerChannel <= 0 || g.DiesPerChip <= 0 || g.PlanesPerDie <= 0 {
		return fmt.Errorf("flash: non-positive geometry %+v", g)
	}
	return nil
}

// PoolSpec describes one page-size pool inside every plane.
type PoolSpec struct {
	// PageBytes is the physical page size of all blocks in the pool.
	PageBytes int
	// BlocksPerPlane is the number of blocks the pool owns in each plane.
	BlocksPerPlane int
	// PagesPerBlock is the number of programmable pages in each block.
	PagesPerBlock int
	// SLCMode marks the pool as operating its MLC cells in SLC mode: only
	// the fast page of each pair is programmed (Implication 5). The caller
	// expresses the 50% capacity loss by halving PagesPerBlock; SLCMode
	// selects the fast-page latencies.
	SLCMode bool
}

// SectorsPerPage returns how many 4 KB mapping sectors one page holds.
func (p PoolSpec) SectorsPerPage() int { return p.PageBytes / SectorBytes }

// BytesPerPlane returns the pool's capacity contribution per plane.
func (p PoolSpec) BytesPerPlane() int64 {
	return int64(p.BlocksPerPlane) * int64(p.PagesPerBlock) * int64(p.PageBytes)
}

// Validate reports nonsensical pool specs.
func (p PoolSpec) Validate() error {
	if p.PageBytes < SectorBytes || p.PageBytes%SectorBytes != 0 {
		return fmt.Errorf("flash: page size %d not a positive multiple of %d", p.PageBytes, SectorBytes)
	}
	if p.BlocksPerPlane <= 0 || p.PagesPerBlock <= 0 {
		return fmt.Errorf("flash: non-positive pool dimensions %+v", p)
	}
	return nil
}

// OpTiming is the (read, program) latency pair for one page size, in
// nanoseconds.
type OpTiming struct {
	ReadNs    int64
	ProgramNs int64
}

// Timing collects the latency model of the device.
type Timing struct {
	// PerPage maps page size in bytes to its read/program latencies
	// (Table V: 4 KB → 160/1385 µs, 8 KB → 244/1491 µs).
	PerPage map[int]OpTiming
	// EraseNs is the block erase latency (3800 µs in Table V).
	EraseNs int64
	// TransferNsPerByte models the channel bus (ns per byte moved).
	TransferNsPerByte float64
	// CmdOverheadNs is the fixed per-page-operation command cost on the
	// channel.
	CmdOverheadNs int64
	// RequestOverheadNs is the fixed per-request cost in the controller
	// (firmware dispatch, mapping lookup), paid once per host request.
	RequestOverheadNs int64
	// PipelineFactor scales read/program latency for the second and later
	// consecutive operations a single host request issues to the same plane,
	// modeling cache-mode program/read pipelining. 1 disables pipelining.
	// Only honored when ChannelInterleave is true — a controller that holds
	// the channel through the flash operation cannot pipeline.
	PipelineFactor float64
	// ChannelInterleave selects the channel discipline. When false (simple
	// eMMC controllers — the premise of the paper's Implication 1), the
	// channel is held for the whole transfer+flash operation, so a request's
	// effective parallelism is the channel count. When true (SSD-style
	// interleaving), the channel frees after the data transfer and flash
	// operations overlap across planes.
	ChannelInterleave bool

	// MLC fast/slow page model (Implication 5). An MLC cell pair exposes a
	// fast (LSB) and a slow (MSB) page; PerPage latencies are the pair
	// average. With MLCPairing set, programs alternate fast/slow by page
	// index using PairingSpread: fast = program × (1 − spread/2),
	// slow = program × (1 + spread/2). SLC-mode pools always pay fast-page
	// cost, for reads as well (SLCReadFactor).
	MLCPairing    bool
	PairingSpread float64 // e.g. 0.8: fast 0.6×, slow 1.4×
	// SLCReadFactor and SLCProgramFactor scale latencies for SLCMode pools;
	// zero values default to 0.7 and 0.45 (Micron L7x-class SLC-mode).
	SLCReadFactor    float64
	SLCProgramFactor float64
}

// slcDefaults returns the effective SLC factors.
func (t Timing) slcDefaults() (read, program float64) {
	read, program = t.SLCReadFactor, t.SLCProgramFactor
	if read == 0 {
		read = 0.7
	}
	if program == 0 {
		program = 0.45
	}
	return read, program
}

// ReadPool returns the read latency for a page of the given pool.
func (t Timing) ReadPool(pool PoolSpec) int64 {
	base := t.Read(pool.PageBytes)
	if pool.SLCMode {
		rf, _ := t.slcDefaults()
		return int64(float64(base) * rf)
	}
	return base
}

// ProgramPool returns the program latency for the pool's page at the given
// in-block page index (the index selects fast vs slow under MLC pairing).
func (t Timing) ProgramPool(pool PoolSpec, pageIndex int) int64 {
	base := t.Program(pool.PageBytes)
	if pool.SLCMode {
		_, pf := t.slcDefaults()
		return int64(float64(base) * pf)
	}
	if t.MLCPairing && t.PairingSpread > 0 {
		if pageIndex%2 == 0 {
			return int64(float64(base) * (1 - t.PairingSpread/2))
		}
		return int64(float64(base) * (1 + t.PairingSpread/2))
	}
	return base
}

// Read returns the read latency for the given page size.
func (t Timing) Read(pageBytes int) int64 {
	ot, ok := t.PerPage[pageBytes]
	if !ok {
		panic(fmt.Sprintf("flash: no timing for page size %d", pageBytes))
	}
	return ot.ReadNs
}

// Program returns the program latency for the given page size.
func (t Timing) Program(pageBytes int) int64 {
	ot, ok := t.PerPage[pageBytes]
	if !ok {
		panic(fmt.Sprintf("flash: no timing for page size %d", pageBytes))
	}
	return ot.ProgramNs
}

// Transfer returns the channel occupancy for moving n payload bytes plus
// one command.
func (t Timing) Transfer(n int) int64 {
	return t.CmdOverheadNs + int64(float64(n)*t.TransferNsPerByte)
}

// Validate reports incomplete timing models.
func (t Timing) Validate() error {
	if len(t.PerPage) == 0 {
		return fmt.Errorf("flash: timing has no per-page latencies")
	}
	for sz, ot := range t.PerPage {
		if ot.ReadNs <= 0 || ot.ProgramNs <= 0 {
			return fmt.Errorf("flash: non-positive latency for page size %d", sz)
		}
	}
	if t.EraseNs <= 0 {
		return fmt.Errorf("flash: non-positive erase latency")
	}
	if t.PipelineFactor <= 0 || t.PipelineFactor > 1 {
		return fmt.Errorf("flash: pipeline factor %v outside (0,1]", t.PipelineFactor)
	}
	if t.PairingSpread < 0 || t.PairingSpread >= 2 {
		return fmt.Errorf("flash: pairing spread %v outside [0,2)", t.PairingSpread)
	}
	return nil
}

// Page states inside a block.
const (
	pageFree = -1 // never programmed since last erase
)

// Block is one erase unit. Pages are programmed strictly in order
// (writePtr), the NAND constraint that forces out-of-place updates.
type Block struct {
	// live[i] counts the live 4 KB sectors page i still holds;
	// pageFree marks an unprogrammed page.
	live     []int8
	writePtr int
	// liveSectors is the block total, kept for O(1) GC victim scoring.
	liveSectors int
	erases      int
	// retired marks a grown bad block: a program or erase failure made the
	// FTL withdraw it from allocation permanently.
	retired bool
}

// NewBlock returns an erased block with the given page count.
func NewBlock(pagesPerBlock int) *Block { return &NewBlocks(1, pagesPerBlock)[0] }

// NewBlocks returns n erased blocks of pagesPerBlock pages each. The
// blocks and their page-state arrays come from two backing slices, so a
// whole pool costs two allocations instead of two per block.
func NewBlocks(n, pagesPerBlock int) []Block {
	live := make([]int8, n*pagesPerBlock)
	for i := range live {
		live[i] = pageFree
	}
	blocks := make([]Block, n)
	for i := range blocks {
		blocks[i].live = live[i*pagesPerBlock : (i+1)*pagesPerBlock : (i+1)*pagesPerBlock]
	}
	return blocks
}

// Full reports whether every page has been programmed.
func (b *Block) Full() bool { return b.writePtr >= len(b.live) }

// NextFree returns the next programmable page index, or -1 when full.
func (b *Block) NextFree() int {
	if b.Full() {
		return -1
	}
	return b.writePtr
}

// NextFreeCount returns the write pointer position, i.e. how many pages have
// been programmed so far.
func (b *Block) NextFreeCount() int { return b.writePtr }

// Program marks the next page programmed with the given number of live
// sectors and returns its index. It panics on a full block or an impossible
// sector count — both indicate allocator bugs, not recoverable conditions.
func (b *Block) Program(liveSectors int) int {
	if b.retired {
		panic("flash: programming a retired block")
	}
	if b.Full() {
		panic("flash: programming a full block")
	}
	if liveSectors < 0 || liveSectors > 127 {
		panic("flash: implausible live sector count")
	}
	i := b.writePtr
	b.live[i] = int8(liveSectors)
	b.liveSectors += liveSectors
	b.writePtr++
	return i
}

// InvalidateSector marks one live sector of page i stale.
func (b *Block) InvalidateSector(i int) {
	if b.live[i] <= 0 {
		panic("flash: invalidating a sector on a page with no live sectors")
	}
	b.live[i]--
	b.liveSectors--
}

// LiveSectors returns the block's total live sector count.
func (b *Block) LiveSectors() int { return b.liveSectors }

// LivePages returns how many pages still hold at least one live sector.
func (b *Block) LivePages() int {
	n := 0
	for _, c := range b.live {
		if c > 0 {
			n++
		}
	}
	return n
}

// PageLive returns the live sector count of page i (0 for stale/free pages).
func (b *Block) PageLive(i int) int {
	if b.live[i] == pageFree {
		return 0
	}
	return int(b.live[i])
}

// Programmed reports whether page i has been programmed since the last erase.
func (b *Block) Programmed(i int) bool { return b.live[i] != pageFree }

// Erase resets the block to the free state and bumps its wear counter.
// Erasing a block with live sectors is a data-loss bug and panics.
func (b *Block) Erase() {
	if b.retired {
		panic("flash: erasing a retired block")
	}
	if b.liveSectors != 0 {
		panic("flash: erasing a block that still holds live data")
	}
	for i := range b.live {
		b.live[i] = pageFree
	}
	b.writePtr = 0
	b.erases++
}

// Burn consumes the next page as a failed program: the page is marked
// programmed but carries no live data (its cells are in an undefined
// state), so the write pointer advances past it. The FTL calls this when
// the NAND reports a program-status failure, then re-programs the payload
// elsewhere.
func (b *Block) Burn() int {
	if b.retired {
		panic("flash: burning a page of a retired block")
	}
	if b.Full() {
		panic("flash: burning a page of a full block")
	}
	i := b.writePtr
	b.live[i] = 0
	b.writePtr++
	return i
}

// Retire withdraws the block from service as a grown bad block. Its live
// data must have been relocated first; retiring live data is a bug and
// panics.
func (b *Block) Retire() {
	if b.liveSectors != 0 {
		panic("flash: retiring a block that still holds live data")
	}
	b.retired = true
}

// Retired reports whether the block has been withdrawn from service.
func (b *Block) Retired() bool { return b.retired }

// EraseCount returns how many times the block has been erased.
func (b *Block) EraseCount() int { return b.erases }

// Pages returns the block's page count.
func (b *Block) Pages() int { return len(b.live) }
