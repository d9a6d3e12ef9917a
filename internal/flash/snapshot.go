package flash

import (
	"encoding/binary"

	"emmcio/internal/wire"
)

// AppendState appends the block's share of a device snapshot: its erase
// count and write pointer as little-endian uint32s and its retired flag
// as a byte. The programmed pages' contents belong to the FTL, which
// writes each page's live-sector list after this header.
func (b *Block) AppendState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.erases))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.writePtr))
	if b.retired {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// ReadState reads a header AppendState wrote into a block fresh from
// NewBlocks. It sets the erase count and returns the write pointer,
// checked against the block's pages, and the retired flag: the caller
// rebuilds the programmed pages through Attach and Program, which derives
// the live-sector totals, and then calls Retire.
func (b *Block) ReadState(r *wire.Reader) (writePtr int, retired bool) {
	erases, ptr, flag := r.U32(), r.U32(), r.U8()
	if r.Err() != nil {
		return 0, false
	}
	if ptr > uint32(b.pages) || flag > 1 {
		r.Failf("block write pointer %d or retired flag %d outside a %d-page block", ptr, flag, b.pages)
		return 0, false
	}
	b.erases = int(erases)
	return int(ptr), flag == 1
}
