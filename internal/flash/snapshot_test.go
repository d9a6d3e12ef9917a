package flash

import (
	"reflect"
	"testing"
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

// TestDumpWireForm pins Dump to the sentinel form snapshots have always
// carried: every page at or past the write pointer reads pageFree (-1),
// whether or not the block holds page state in memory.
func TestDumpWireForm(t *testing.T) {
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

	cases := []struct {
		name string
		b    *Block
		want BlockState
	}{
		{"never written", never, BlockState{Live: []int8{-1, -1, -1, -1}}},
		{"partly written", partly, BlockState{Live: []int8{1, 1, -1, -1}, WritePtr: 2, LiveSecs: 2}},
		{"burned page", burned, BlockState{Live: []int8{1, 0, -1, -1}, WritePtr: 2, LiveSecs: 1}},
		{"erased then reprogrammed", reprogrammed, BlockState{Live: []int8{1, -1, -1, -1}, WritePtr: 1, LiveSecs: 1, Erases: 1}},
	}
	for _, tc := range cases {
		got := tc.b.Dump()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Dump = %+v, want %+v", tc.name, got, tc.want)
		}
		if err := got.Check(4, 2); err != nil {
			t.Errorf("%s: dumped state fails Check: %v", tc.name, err)
		}
	}

	// RestoreBlocks(Dump(...)) round-trips, and only written blocks come
	// back with page state.
	states := make([]BlockState, len(cases))
	for i, tc := range cases {
		states[i] = tc.b.Dump()
	}
	restored := RestoreBlocks(states)
	for i, tc := range cases {
		b := &restored[i]
		if got := b.Dump(); !reflect.DeepEqual(got, states[i]) {
			t.Errorf("%s: restored block dumps %+v, want %+v", tc.name, got, states[i])
		}
		if b.Attached() != (states[i].WritePtr > 0) {
			t.Errorf("%s: restored block attached = %v with write pointer %d", tc.name, b.Attached(), states[i].WritePtr)
		}
		if b.LivePages() != tc.b.LivePages() || b.Pages() != 4 {
			t.Errorf("%s: restored block has %d live of %d pages, want %d of 4", tc.name, b.LivePages(), b.Pages(), tc.b.LivePages())
		}
	}
	// A restored written block keeps programming where it left off.
	if p := restored[1].Program(2); p != 2 || restored[1].PageLive(2) != 2 {
		t.Fatalf("restored block programmed page %d with %d live, want page 2 with 2", p, restored[1].PageLive(2))
	}
}
