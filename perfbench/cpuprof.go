package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the groups CPU-profile self samples are charged to. The
// shares of one profile sum to 1: runtime_gc takes runtime samples under a
// GC worker, assist or sweeper; runtime_map takes the runtime's hash-map
// code (the FTL's forward map and map cache live there); runtime takes the
// rest of the runtime; other takes every package not listed (the benchmark
// itself, the standard library's leftovers, the repository's smaller
// packages).
var cpuLayers = []string{
	"ftl", "flash", "sim", "emmc", "ufs", "core", "trace", "workload", "storage",
	"server", "telemetry", "net_http", "json", "runtime_gc", "runtime_map", "runtime", "other",
}

// gcFrames are runtime functions whose presence anywhere on a stack marks
// the sample as garbage-collection work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.GC":             true,
	"runtime.wbBufFlush":     true,
}

// layerOf maps a leaf function's package to its CPU layer.
func layerOf(fn string, stack []string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "emmcio/internal/"):
		name := strings.TrimPrefix(pkg, "emmcio/internal/")
		for _, c := range cpuLayers[:11] {
			if name == c {
				return c
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		for _, f := range stack {
			if gcFrames[f] {
				return "runtime_gc"
			}
		}
		if strings.HasPrefix(fn, "runtime.gcWriteBarrier") {
			return "runtime_gc"
		}
		if pkg == "internal/runtime/maps" || strings.HasPrefix(fn, "runtime.map") {
			return "runtime_map"
		}
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "net_http"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}

// packageOf returns the import path of a symbol name such as
// "emmcio/internal/ftl.(*FTL).Write" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a CPU profile in the gzipped profile.proto format that
// runtime/pprof writes and returns each layer's share of the self samples,
// plus the sample count. It reads only the fields it needs: samples
// (location ids, counts), locations (function ids, innermost first),
// functions (name) and the string table.
func cpuShares(prof []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	nameOf := func(fid uint64) string {
		if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	byLayer := map[string]int64{}
	var total int64
	var stack []string
	for _, s := range samples {
		if len(s.locs) == 0 || s.count <= 0 {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				stack = append(stack, nameOf(fid))
			}
		}
		leaf := ""
		if len(stack) > 0 {
			leaf = stack[0]
		}
		byLayer[layerOf(leaf, stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, c := range cpuLayers {
		if total > 0 {
			shares[c] = float64(byLayer[c]) / float64(total)
		}
	}
	return shares, int(total), nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as one
// varint (v) or packed into data.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
