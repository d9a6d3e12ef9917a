package flash

import "fmt"

// pageFree is the wire value of a page at or past the write pointer in
// BlockState.Live. In memory such a page is free by position alone.
const pageFree = -1

// BlockState is the serializable form of a Block, used by device snapshots
// (archiving an aged device instead of replaying months of history).
type BlockState struct {
	Live     []int8
	WritePtr int
	LiveSecs int
	Erases   int
	// Retired marks a grown bad block. Absent in pre-fault snapshots, which
	// gob decodes as false — exactly the pre-fault semantics.
	Retired bool
}

// Check reports a state no sequence of Program, Burn and Erase calls
// produces on a block of pages pages holding up to spp sectors each: a
// write pointer outside the block, a programmed page at or past it or a
// free page before it, or a live-sector total that disagrees with the
// pages. Restoring such a state would panic or resurrect data later.
func (s BlockState) Check(pages, spp int) error {
	if len(s.Live) != pages {
		return fmt.Errorf("block has %d pages, spec %d", len(s.Live), pages)
	}
	if s.WritePtr < 0 || s.WritePtr > pages {
		return fmt.Errorf("write pointer %d outside a %d-page block", s.WritePtr, pages)
	}
	sum := 0
	for i, n := range s.Live {
		if (i < s.WritePtr) != (n != pageFree) || int(n) > spp || n < pageFree {
			return fmt.Errorf("page %d state %d contradicts write pointer %d", i, n, s.WritePtr)
		}
		if n > 0 {
			sum += int(n)
		}
	}
	if sum != s.LiveSecs {
		return fmt.Errorf("block counts %d live sectors, its pages %d", s.LiveSecs, sum)
	}
	return nil
}

// Dump exports the block's state, writing pageFree for every page at or
// past the write pointer.
func (b *Block) Dump() BlockState {
	live := make([]int8, b.pages)
	copy(live, b.live[:b.writePtr])
	for i := b.writePtr; i < b.pages; i++ {
		live[i] = pageFree
	}
	return BlockState{Live: live, WritePtr: b.writePtr, LiveSecs: b.liveSectors, Erases: b.erases, Retired: b.retired}
}

// RestoreBlocks builds blocks from states that pass Check. Only blocks with
// programmed pages get page state, all carved from one backing slice; the
// rest stay unattached like NewBlocks' blocks.
func RestoreBlocks(states []BlockState) []Block {
	n := 0
	for _, s := range states {
		if s.WritePtr > 0 {
			n += len(s.Live)
		}
	}
	arena := make([]int8, n)
	blocks := make([]Block, len(states))
	for i, s := range states {
		blocks[i] = Block{pages: len(s.Live), writePtr: s.WritePtr,
			liveSectors: s.LiveSecs, erases: s.Erases, retired: s.Retired}
		if s.WritePtr > 0 {
			k := len(s.Live)
			blocks[i].live = arena[:k:k]
			arena = arena[k:]
			copy(blocks[i].live, s.Live[:s.WritePtr])
		}
	}
	return blocks
}
