package flash

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
