package flash

import (
	"encoding/hex"
	"testing"

	"emmcio/internal/wire"
)

// TestNewBlocksCarryNoPageState: construction allocates no per-page state;
// a block gets its slab only when it is opened, and keeps it across erases.
func TestNewBlocksCarryNoPageState(t *testing.T) {
	blocks := NewBlocks(3, 8)
	for i := range blocks {
		b := &blocks[i]
		if b.Attached() || b.Pages() != 8 || b.Full() || b.NextFree() != 0 {
			t.Fatalf("block %d: attached %v pages %d full %v; want an erased 8-page block with no page state",
				i, b.Attached(), b.Pages(), b.Full())
		}
		if b.Programmed(0) || b.PageLive(7) != 0 || b.LivePages() != 0 {
			t.Fatalf("block %d reports programmed or live pages before any write", i)
		}
	}
	b := &blocks[1]
	b.Attach(make([]int8, 8))
	b.Program(1)
	b.InvalidateSector(0)
	b.Erase()
	if !b.Attached() || blocks[0].Attached() || blocks[2].Attached() {
		t.Fatal("opening one block attached the wrong blocks, or erase dropped its slab")
	}
}

// TestAttachRejectsMisuse: a second slab, or one of the wrong size, is an
// allocator bug.
func TestAttachRejectsMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"twice":      func() { NewBlock(4).Attach(make([]int8, 4)) },
		"wrong size": func() { (&NewBlocks(1, 4)[0]).Attach(make([]int8, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("attach %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestBlockStateRoundTrip: a block's header plus its pages replayed
// through Program restores every kind of block state, and only written
// blocks need page state.
func TestBlockStateRoundTrip(t *testing.T) {
	never := &NewBlocks(1, 4)[0]

	partly := NewBlock(4)
	partly.Program(2)
	partly.Program(1)
	partly.InvalidateSector(0)

	burned := NewBlock(4)
	burned.Program(1)
	burned.Burn()

	reprogrammed := NewBlock(4)
	reprogrammed.Program(2)
	reprogrammed.Program(1)
	reprogrammed.Program(0)
	for _, p := range []int{0, 0, 1} {
		reprogrammed.InvalidateSector(p)
	}
	reprogrammed.Erase()
	reprogrammed.Program(1)

	retired := NewBlock(4)
	retired.Burn()
	retired.Retire()

	for _, tc := range []struct {
		name string
		b    *Block
		want string
	}{
		{"never written", never, "0000000000000000" + "00"},
		{"partly written", partly, "0000000002000000" + "00"},
		{"burned page", burned, "0000000002000000" + "00"},
		{"erased then reprogrammed", reprogrammed, "0100000001000000" + "00"},
		{"retired", retired, "0000000001000000" + "01"},
	} {
		buf := tc.b.AppendState(nil)
		if got := hex.EncodeToString(buf); got != tc.want {
			t.Errorf("%s: AppendState = %s, want %s", tc.name, got, tc.want)
		}
		b := &NewBlocks(1, 4)[0]
		r := wire.NewReader(buf)
		ptr, isRetired := b.ReadState(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%s: ReadState: %v", tc.name, err)
		}
		if ptr > 0 {
			b.Attach(make([]int8, 4))
		}
		for p := 0; p < ptr; p++ {
			b.Program(tc.b.PageLive(p))
		}
		if isRetired {
			b.Retire()
		}
		if b.NextFreeCount() != tc.b.NextFreeCount() || b.LiveSectors() != tc.b.LiveSectors() ||
			b.EraseCount() != tc.b.EraseCount() || b.Retired() != tc.b.Retired() || b.LivePages() != tc.b.LivePages() {
			t.Errorf("%s: restored block differs from the original", tc.name)
		}
	}

	// A write pointer past the block or a flag other than 0/1 is refused.
	for _, bad := range []string{"000000000500000000", "000000000100000002", "0000"} {
		raw, _ := hex.DecodeString(bad)
		r := wire.NewReader(raw)
		if NewBlocks(1, 4)[0].ReadState(r); r.Err() == nil {
			t.Errorf("ReadState(%s) accepted a corrupt header", bad)
		}
	}
}
