package nand

import (
	"strconv"

	"emmcio/internal/telemetry"
)

// HostXfer names a payload transfer between controller RAM and the host.
type HostXfer int

const (
	// RAMHitXfer returns read data the RAM buffer already holds.
	RAMHitXfer HostXfer = iota
	// WriteAckXfer acknowledges a write from the write buffer.
	WriteAckXfer
)

var hostXferNames = [...]string{RAMHitXfer: "ram-hit-xfer", WriteAckXfer: "wb-ack"}

// pageIdx indexes span keys by pool page size: 0 for 4K, 1 for 8K.
func pageIdx(pageBytes int) int {
	if pageBytes >= 8192 {
		return 1
	}
	return 0
}

// Span-key slots for a flash operation: opWrite is the program path,
// opRead the read path.
const (
	opWrite = iota
	opRead
)

// backSpans is the attached tracer plus every span key the back end
// records under, resolved once in SetTelemetry so the hot path only
// indexes. Op keys are indexed [unit][opWrite|opRead][pageIdx].
type backSpans struct {
	tr       *telemetry.Tracer
	channel  [][2][2]telemetry.SpanKey
	plane    [][2][2]telemetry.SpanKey
	host     [][len(hostXferNames)][3]telemetry.SpanKey // label slot 0 = none, 1+pageIdx
	flush    telemetry.SpanKey
	recovery telemetry.SpanKey
	fgGC     [2]telemetry.SpanKey
	idleGC   [2]telemetry.SpanKey
}

// newBackSpans resolves the back end's span keys on tr. Channel spans are
// named by controller mode: the interleaved controller frees the channel
// after the transfer (xfer-in, xfer-out), the simple one holds it through
// the flash operation (xfer+program, read+xfer).
func (b *Backend) newBackSpans(tr *telemetry.Tracer) *backSpans {
	layer := b.p.Name
	chanNames := [2]string{opWrite: "xfer+program", opRead: "read+xfer"}
	if b.p.Interleave {
		chanNames = [2]string{opWrite: "xfer-in", opRead: "xfer-out"}
	}
	pages := [2]telemetry.Label{telemetry.L("page", "4K"), telemetry.L("page", "8K")}
	opKeys := func(track string, names [2]string) (k [2][2]telemetry.SpanKey) {
		for op, name := range names {
			for pg, l := range pages {
				k[op][pg] = tr.Key(layer, track, name, l)
			}
		}
		return k
	}
	s := &backSpans{
		tr:       tr,
		channel:  make([][2][2]telemetry.SpanKey, len(b.channels)),
		plane:    make([][2][2]telemetry.SpanKey, len(b.planes)),
		host:     make([][len(hostXferNames)][3]telemetry.SpanKey, len(b.channels)),
		flush:    tr.Key(layer, "device", "flush"),
		recovery: tr.Key(layer, "device", "read-recovery"),
	}
	for ch := range s.channel {
		track := "channel/" + strconv.Itoa(ch)
		s.channel[ch] = opKeys(track, chanNames)
		for x, name := range hostXferNames {
			s.host[ch][x][0] = tr.Key(layer, track, name)
			for pg, l := range pages {
				s.host[ch][x][1+pg] = tr.Key(layer, track, name, l)
			}
		}
	}
	for pl := range s.plane {
		s.plane[pl] = opKeys("plane/"+strconv.Itoa(pl), [2]string{opWrite: "program", opRead: "read"})
	}
	for pg, l := range pages {
		s.fgGC[pg] = tr.Key("ftl", "gc", "foreground-gc", l)
		s.idleGC[pg] = tr.Key("ftl", "gc", "idle-gc", l)
	}
	return s
}
