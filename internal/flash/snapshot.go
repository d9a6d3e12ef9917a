package flash

import "fmt"

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

// Dump exports the block's state.
func (b *Block) Dump() BlockState {
	live := make([]int8, len(b.live))
	copy(live, b.live)
	return BlockState{Live: live, WritePtr: b.writePtr, LiveSecs: b.liveSectors, Erases: b.erases, Retired: b.retired}
}

// RestoreBlocks builds blocks from dumped states; like NewBlocks, the
// blocks and their page-state arrays come from two backing slices.
func RestoreBlocks(states []BlockState) []Block {
	n := 0
	for _, s := range states {
		n += len(s.Live)
	}
	live := make([]int8, 0, n)
	blocks := make([]Block, len(states))
	for i, s := range states {
		start := len(live)
		live = append(live, s.Live...)
		blocks[i] = Block{live: live[start:len(live):len(live)], writePtr: s.WritePtr,
			liveSectors: s.LiveSecs, erases: s.Erases, retired: s.Retired}
	}
	return blocks
}
