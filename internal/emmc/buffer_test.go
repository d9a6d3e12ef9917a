package emmc

import (
	"testing"

	"emmcio/internal/trace"
)

// ramProbe drives the RAM read buffer through the device: each probe reads
// one 4 KB sector after an idle gap and reports whether it was a RAM hit
// (overhead plus host transfer, no flash read).
type ramProbe struct {
	t  *testing.T
	d  *Device
	at int64
}

func newRAMProbe(t *testing.T, bufBytes int64) *ramProbe {
	c := cfg4K()
	c.RAMBufferBytes = bufBytes
	d, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return &ramProbe{t: t, d: d}
}

func (p *ramProbe) submit(req trace.Request) trace.Request {
	p.at += 10_000_000
	req.Arrival = p.at
	res, err := p.d.Submit(req)
	if err != nil {
		p.t.Fatal(err)
	}
	req.ServiceStart, req.Finish = res.ServiceStart, res.Finish
	return req
}

func (p *ramProbe) readProbe(lpn uint64) bool {
	r := p.submit(rd(0, lpn*trace.SectorsPerPage, 4096))
	tm := testTiming()
	return r.Finish-r.ServiceStart == tm.RequestOverheadNs+tm.Transfer(4096)
}

func TestRAMBufferLRU(t *testing.T) {
	b := newRAMProbe(t, 3*4096)
	if b.readProbe(1) {
		t.Fatal("cold cache hit")
	}
	if !b.readProbe(1) {
		t.Fatal("warm cache miss")
	}
	b.readProbe(2)
	b.readProbe(3) // cache now [3 2 1]
	b.readProbe(4) // evicts 1
	if b.readProbe(1) {
		t.Fatal("evicted sector still cached")
	}
	if !b.readProbe(4) || !b.readProbe(3) {
		t.Fatal("recently used sectors evicted")
	}
}

func TestRAMBufferWriteAllocate(t *testing.T) {
	b := newRAMProbe(t, 4*4096)
	b.submit(wr(0, 10*trace.SectorsPerPage, 4096))
	if !b.readProbe(10) {
		t.Fatal("written sector not cached")
	}
}

func TestRAMBufferHitRate(t *testing.T) {
	b := newRAMProbe(t, 8*4096)
	b.readProbe(1) // miss
	b.readProbe(1) // hit
	b.readProbe(1) // hit
	b.readProbe(2) // miss
	if got := b.d.BufferHitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
}

func TestRAMBufferDisabled(t *testing.T) {
	b := newRAMProbe(t, 4095) // below one sector: no buffer
	b.readProbe(1)
	if b.readProbe(1) || b.d.BufferHitRate() != 0 {
		t.Fatal("sub-sector buffer should be disabled")
	}
	d, _ := New(cfg4K())
	if d.BufferHitRate() != 0 {
		t.Fatal("disabled buffer should report zero hit rate")
	}
}

// A buffered device serves repeated reads of hot data faster than an
// unbuffered one, and the hit rate tracks the workload's temporal locality —
// the Implication-3 mechanism.
func TestBufferedReadsFaster(t *testing.T) {
	run := func(bufBytes int64) (int64, float64) {
		c := cfg4K()
		c.RAMBufferBytes = bufBytes
		d, _ := New(c)
		at := int64(0)
		w, _ := d.Submit(wr(at, 0, 4096))
		at = w.Finish
		var total int64
		for i := 0; i < 50; i++ {
			at += 10_000_000
			r, err := d.Submit(rd(at, 0, 4096))
			if err != nil {
				t.Fatal(err)
			}
			total += r.Finish - r.ServiceStart
		}
		return total, d.BufferHitRate()
	}
	cold, _ := run(0)
	warm, hitRate := run(1 << 20)
	if warm >= cold {
		t.Fatalf("buffered reads (%d ns) not faster than unbuffered (%d ns)", warm, cold)
	}
	if hitRate < 0.9 {
		t.Fatalf("hot single-sector workload hit rate %.2f, want ~1", hitRate)
	}
}

// Random reads over a huge address space get almost no buffer benefit — the
// low-locality side of Implication 3.
func TestBufferUselessWithoutLocality(t *testing.T) {
	c := cfg4K()
	c.RAMBufferBytes = 1 << 20
	d, _ := New(c)
	at := int64(0)
	for i := 0; i < 200; i++ {
		at += 10_000_000
		if _, err := d.Submit(rd(at, uint64(i)*100000*trace.SectorsPerPage%(1<<20), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if hr := d.BufferHitRate(); hr > 0.05 {
		t.Fatalf("random-read hit rate %.2f, want ~0", hr)
	}
}
