package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/reliability"
	"emmcio/internal/storage"
	"emmcio/internal/wire"
)

// The version-1 reader, frozen: the only code that still reads a gob
// snapshot payload. The structs mirror the gob layouts (gob matches
// fields by name), and transcodeV1 rewrites a decoded payload in the
// version-2 layout, which the ordinary restore then reads and checks in
// full. Values version 2 derives (page and block live counts, the forward
// map) are dropped.

// v1Timing is flash.Timing's gob form: a nested stream carrying PerPage
// as a slice sorted by page size.
type v1Timing flash.Timing

// GobDecode implements gob.GobDecoder.
func (t *v1Timing) GobDecode(data []byte) error {
	var w struct {
		PerPage []struct {
			Bytes int
			Op    flash.OpTiming
		}
		EraseNs, CmdOverheadNs, RequestOverheadNs                                         int64
		TransferNsPerByte, PipelineFactor, PairingSpread, SLCReadFactor, SLCProgramFactor float64
		ChannelInterleave, MLCPairing                                                     bool
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*t = v1Timing{PerPage: map[int]flash.OpTiming{}, EraseNs: w.EraseNs, CmdOverheadNs: w.CmdOverheadNs,
		RequestOverheadNs: w.RequestOverheadNs, TransferNsPerByte: w.TransferNsPerByte,
		PipelineFactor: w.PipelineFactor, PairingSpread: w.PairingSpread, SLCReadFactor: w.SLCReadFactor,
		SLCProgramFactor: w.SLCProgramFactor, ChannelInterleave: w.ChannelInterleave, MLCPairing: w.MLCPairing}
	for _, p := range w.PerPage {
		t.PerPage[p.Bytes] = p.Op
	}
	return nil
}

// v1Device is the union of the eMMC and UFS gob layouts: each payload
// fills its own fields and leaves the other layout's zero. Config's JSON
// encoding is a valid configuration of either device, which ignores the
// other's fields.
type v1Device struct {
	Config struct {
		Geometry                      flash.Geometry
		Timing                        v1Timing
		Pools                         []flash.PoolSpec
		GCFreeBlocks                  int
		GCPolicy                      emmc.GCPolicy
		Wear                          ftl.WearPolicy
		PowerSaving                   bool
		LightSleepAfter, LightWake    int64
		DeepSleepAfter, DeepWake      int64
		RAMBufferBytes, MapCacheBytes int64
		Reliability                   *reliability.Model
		ReadAheadPages                int
		CommandQueue, SDCard          bool
		FlushNs, WriteBufferBytes     int64
		Faults                        *faults.Config
		Queues, QueueDepth            int
		WriteBoosterBytes             int64
	}
	FTL                                            *v1FTL
	FreeAt                                         int64
	Slots                                          []int64
	LastEnd                                        int64
	RRPlane                                        int
	Metrics                                        storage.Metrics
	ChannelFree, ChannelBusy, PlaneFree, PlaneBusy []int64
	BoosterQueue                                   []struct {
		Pool int
		LPNs []int64
	}
	BoosterHits, BoosterMisses, FaultDraws int64
}

// v1FTL is ftl.SnapshotData's gob form, a nested stream.
type v1FTL struct {
	Planes []struct {
		Pools []struct {
			Blocks []struct {
				Live             []int8
				WritePtr, Erases int
				Retired          bool
			}
			Free   []int32
			Active int32
		}
	}
	Rev []struct {
		Key  uint64
		LPNs []int64
	}
	Stats      ftl.Stats
	PoolErases []int64
}

// GobDecode implements gob.GobDecoder.
func (s *v1FTL) GobDecode(data []byte) error {
	type plain v1FTL // without this method
	return gob.NewDecoder(bytes.NewReader(data)).Decode((*plain)(s))
}

// transcodeV1 rewrites a version-1 payload of backend in the version-2
// layout. It checks only what it must to stay bounded; the version-2
// restore checks the rest.
func transcodeV1(backend storage.Backend, payload []byte) ([]byte, error) {
	var d v1Device
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decoding version-1 snapshot: %w", err)
	}
	if d.FTL == nil || len(d.ChannelFree) != len(d.ChannelBusy) || len(d.PlaneFree) != len(d.PlaneBusy) {
		return nil, fmt.Errorf("core: version-1 snapshot lacks FTL or resource state")
	}
	out, err := wire.AppendJSON(nil, d.Config)
	if err != nil {
		return nil, fmt.Errorf("core: version-1 snapshot config: %w", err)
	}
	if backend == storage.BackendUFS {
		out = wire.AppendI64(out, d.Slots...)
	} else {
		out = wire.AppendI64(out, d.FreeAt)
	}
	if out, err = d.FTL.appendV2(out); err != nil {
		return nil, err
	}
	out = storage.AppendMetrics(wire.AppendI64(out, d.LastEnd, int64(d.RRPlane)), d.Metrics)
	for i := range d.ChannelFree {
		out = wire.AppendI64(out, d.ChannelFree[i], d.ChannelBusy[i])
	}
	for i := range d.PlaneFree {
		out = wire.AppendI64(out, d.PlaneFree[i], d.PlaneBusy[i])
	}
	inj, err := faults.New(d.Config.Faults)
	if err == nil {
		err = inj.Skip(d.FaultDraws)
	}
	if err != nil {
		return nil, fmt.Errorf("core: version-1 snapshot: %w", err)
	}
	out = wire.AppendI64(inj.AppendState(out), d.BoosterHits, d.BoosterMisses)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.BoosterQueue)))
	for _, c := range d.BoosterQueue {
		out = appendLPNs(append(out, uint8(c.Pool), uint8(len(c.LPNs))), c.LPNs)
	}
	return out, nil
}

// appendV2 appends the FTL in the layout of ftl.AppendState, each free
// block as a run of one and each page's LPNs from the reverse map, which
// version 1 sorted by packed (plane, pool, block, page) key.
func (s *v1FTL) appendV2(out []byte) ([]byte, error) {
	le := binary.LittleEndian
	st := s.Stats
	out = wire.AppendI64(out, st.HostProgrammedPages, st.HostPayloadBytes, st.HostFootprintBytes)
	out = ftl.AppendGCWork(out, st.GC)
	out = wire.AppendI64(out, st.StaticLevelMoves, st.ProgramFaults, st.EraseFaults, st.RetiredBlocks)
	out = wire.AppendI64(out, s.PoolErases...)
	rev := s.Rev
	for pi, plane := range s.Planes {
		for qi, q := range plane.Pools {
			out = le.AppendUint32(le.AppendUint32(out, uint32(q.Active)), uint32(len(q.Free)))
			for _, b := range q.Free {
				out = le.AppendUint32(le.AppendUint32(out, uint32(b)), 1)
			}
			at, written := len(out), 0
			out = le.AppendUint32(out, 0)
			for bi, b := range q.Blocks {
				if b.WritePtr < 0 || b.WritePtr > len(b.Live) {
					return nil, fmt.Errorf("core: version-1 snapshot block %d/%d/%d write pointer %d outside %d pages", pi, qi, bi, b.WritePtr, len(b.Live))
				}
				if b.WritePtr == 0 && b.Erases == 0 && !b.Retired {
					continue
				}
				written++
				out = le.AppendUint32(le.AppendUint32(le.AppendUint32(out, uint32(bi)), uint32(b.Erases)), uint32(b.WritePtr))
				if out = append(out, 0); b.Retired {
					out[len(out)-1] = 1
				}
				for page := range b.WritePtr {
					var lpns []int64
					if key := uint64(pi)<<48 | uint64(qi)<<40 | uint64(bi)<<16 | uint64(page); len(rev) > 0 && rev[0].Key == key {
						lpns, rev = rev[0].LPNs, rev[1:]
					}
					out = appendLPNs(append(out, uint8(len(lpns))), lpns)
				}
			}
			le.PutUint32(out[at:], uint32(written))
		}
	}
	return out, nil
}

// appendLPNs appends LPNs as uint32s, an LPN outside the address space as
// one the restore refuses.
func appendLPNs(out []byte, lpns []int64) []byte {
	for _, lpn := range lpns {
		if lpn < 0 || lpn > ftl.MaxLPN {
			lpn = ftl.MaxLPN
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(lpn))
	}
	return out
}
