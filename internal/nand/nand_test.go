package nand

import (
	"strings"
	"testing"

	"emmcio/internal/flash"
)

// TestCostTableMatchesTiming checks every entry of the per-pool cost table
// against the flash.Timing method it stands in for, on a timing with MLC
// pairing and a pool in SLC mode, so the even/odd and SLC entries differ:
// once on the two-pool test array and once on a six-pool one, whose last
// two pools' costs live past the fixed array.
func TestCostTableMatchesTiming(t *testing.T) {
	for _, p := range []Params{testParams(), sixPoolParams()} {
		p.Timing.MLCPairing, p.Timing.PairingSpread = true, 0.8
		p.Pools[1].SLCMode = true
		p.MapCacheBytes = 64 << 10
		b, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		tm := p.Timing
		for i, pool := range p.Pools {
			slc := flash.PoolSpec{PageBytes: pool.PageBytes, BlocksPerPlane: 1, PagesPerBlock: 1, SLCMode: true}
			c := b.costOf(i)
			for page := range 4 {
				if got, want := c.program[page&1], tm.ProgramPool(pool, page); got != want {
					t.Errorf("%d pools, pool %d page %d: program %d, want %d", len(p.Pools), i, page, got, want)
				}
			}
			for _, e := range []struct {
				name      string
				got, want int64
			}{
				{"read", c.read, tm.ReadPool(pool)},
				{"raw read", c.rawRead, tm.Read(pool.PageBytes)},
				{"raw program", c.rawProgram, tm.Program(pool.PageBytes)},
				{"SLC read", c.slcRead, tm.ReadPool(slc)},
				{"SLC program", c.slcProgram, tm.ProgramPool(slc, 0)},
			} {
				if e.got != e.want {
					t.Errorf("%d pools, pool %d: %s %d, want %d", len(p.Pools), i, e.name, e.got, e.want)
				}
			}
		}
		if c := b.costOf(0); c.program[0] == c.program[1] {
			t.Error("MLC pairing left even and odd programs equal")
		}
		if b.mapRead != tm.Read(4096) || b.mapProgram != tm.Program(4096) {
			t.Errorf("translation page read/program %d/%d, want %d/%d", b.mapRead, b.mapProgram, tm.Read(4096), tm.Program(4096))
		}
	}
}

// sixPoolParams is the test array with pools of 24K down to 4K pages.
func sixPoolParams() Params {
	p := testParams()
	p.Pools = nil
	for kb := 24; kb >= 4; kb -= 4 {
		p.Pools = append(p.Pools, flash.PoolSpec{PageBytes: kb << 10, BlocksPerPlane: 8, PagesPerBlock: 8})
		p.Timing.PerPage[kb<<10] = flash.OpTiming{ReadNs: int64(100_000 + 20*kb<<10), ProgramNs: int64(1_200_000 + 40*kb<<10)}
	}
	return p
}

// TestSixPoolArrayWritesAndReads writes one full page into each pool of a
// six-pool array and reads the sectors back, so the pools whose costs lie past
// the fixed array are priced on the op path.
func TestSixPoolArrayWritesAndReads(t *testing.T) {
	p := sixPoolParams()
	p.StageBytes = 0
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var lpns []int64
	var chunks []Chunk
	for i, pool := range p.Pools {
		start := len(lpns)
		for range pool.SectorsPerPage() {
			lpns = append(lpns, int64(len(lpns)))
		}
		chunks = append(chunks, Chunk{Pool: i, LPNs: lpns[start:], PageBytes: pool.PageBytes})
	}
	written, err := b.WriteFTL(0, chunks)
	if err != nil || written <= 0 {
		t.Fatalf("WriteFTL = %d, %v", written, err)
	}
	read, err := b.Read(written, lpns)
	if err != nil || read <= written {
		t.Fatalf("Read from %d = %d, %v", written, read, err)
	}
}

// TestValidateRejectsUnpricedMapCache requires 4 KiB timing whenever a
// mapping cache prices translation pages.
func TestValidateRejectsUnpricedMapCache(t *testing.T) {
	noSmall := testParams()
	noSmall.Pools = noSmall.Pools[:1]
	noSmall.Timing.PerPage = map[int]flash.OpTiming{8192: {ReadNs: 244_000, ProgramNs: 1_491_000}}
	if err := noSmall.Validate(); err != nil {
		t.Fatalf("8 KiB-only array without a mapping cache: %v", err)
	}
	noSmall.MapCacheBytes = 64 << 10
	if err := noSmall.Validate(); err == nil || !strings.Contains(err.Error(), "translation") {
		t.Errorf("mapping cache without 4 KiB timing: Validate() = %v, want a translation-page error", err)
	}
}
