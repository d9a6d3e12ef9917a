package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Compressed codec: a delta + varint encoding that exploits trace structure
// (monotone arrivals, page-aligned sizes, spatially clustered addresses).
// Real multi-hour traces shrink several-fold versus the fixed binary
// format, which matters when archiving many collecting sessions.
//
// Layout: "BIOZ" magic, name (len byte + bytes), varint record count, then
// per record:
//
//	uvarint arrivalDelta   (ns since previous arrival)
//	varint  lbaDelta       (sectors, signed, relative to previous end)
//	uvarint pages          (size / 4 KB)
//	byte    op
//	uvarint wait           (ServiceStart − Arrival; 0 when unreplayed)
//	uvarint service        (Finish − ServiceStart; 0 when unreplayed)
var compressedMagic = [4]byte{'B', 'I', 'O', 'Z'}

// WriteCompressed serializes the trace in the compressed format.
// Requests must be arrival-ordered (Validate enforces this elsewhere).
func WriteCompressed(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(compressedMagic[:]); err != nil {
		return err
	}
	name := []byte(t.Name)
	if len(name) > 255 {
		name = name[:255]
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Reqs))); err != nil {
		return err
	}
	var prevArrival int64
	var prevEnd uint64
	for i := range t.Reqs {
		r := &t.Reqs[i]
		if r.Arrival < prevArrival {
			return fmt.Errorf("trace: compressed codec requires arrival order (index %d)", i)
		}
		if r.Size == 0 || r.Size%PageSize != 0 {
			return fmt.Errorf("trace: compressed codec requires page-aligned sizes (index %d)", i)
		}
		wait := r.ServiceStart - r.Arrival
		service := r.Finish - r.ServiceStart
		if r.ServiceStart == 0 && r.Finish == 0 {
			wait, service = 0, 0
		}
		if wait < 0 || service < 0 {
			return fmt.Errorf("trace: compressed codec requires causal timestamps (index %d)", i)
		}
		if err := putUvarint(uint64(r.Arrival - prevArrival)); err != nil {
			return err
		}
		if err := putVarint(int64(r.LBA) - int64(prevEnd)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Size / PageSize)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(r.Op)); err != nil {
			return err
		}
		if err := putUvarint(uint64(wait)); err != nil {
			return err
		}
		if err := putUvarint(uint64(service)); err != nil {
			return err
		}
		prevArrival = r.Arrival
		prevEnd = r.EndLBA()
	}
	return bw.Flush()
}

// ReadCompressed parses the compressed format.
func ReadCompressed(r io.Reader) (*Trace, error) {
	d, err := NewCompressedDecoder(r)
	if err != nil {
		return nil, err
	}
	return readAll(d)
}
