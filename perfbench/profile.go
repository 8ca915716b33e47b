package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here rather than through a library: the
// module has no dependencies and the standard library's profile parser
// is internal. Only the fields attribution needs are read: samples
// (location ids and counts), locations (their inlined line stacks),
// functions (name index) and the string table. Field numbers follow
// the pprof profile.proto schema.

// stackCount is one profile sample: frames innermost first, and how
// many profiling ticks landed on that stack.
type stackCount struct {
	frames []string
	count  int64
}

// decodeProfile reads a gzipped pprof profile into stacks.
func decodeProfile(gz []byte) ([]stackCount, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = forFields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := forFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, v, b); err != nil {
						return err
					}
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := forFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackCount, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out = append(out, stackCount{frames: frames, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// forFields walks one protobuf message. Varint fields pass their value
// in v; length-delimited fields pass their bytes in msg. Fixed-width
// fields are skipped: the profile schema uses none that matter here.
func forFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendUints adds a repeated integer field, which the encoder writes
// either packed (msg holds varints) or as one varint per field.
func appendUints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repoPrefix is the import-path prefix of the program's own layers.
const repoPrefix = "repro/internal/"

// gcFramePrefixes name the Go runtime's allocation and collection
// entry points; a sample whose innermost decisive frame is one of them
// is charged to cpu.gc.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.markroot", "runtime.greyobject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mspan)", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
}

// attribute charges one stack to a layer. Walking from the innermost
// frame outward, the first frame that is either a runtime allocation or
// collection frame ("gc") or a frame of repro/internal/<module>
// (<module>) decides. Standard-library and benchmark frames therefore
// count toward the repo caller above them, so ed25519 counts toward
// keys. A stack with no deciding frame is "other".
func attribute(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// layerShares attributes every stack and returns each layer's share of
// all ticks.
func layerShares(stacks []stackCount) map[string]float64 {
	ticks := map[string]int64{}
	var total int64
	for _, s := range stacks {
		ticks[attribute(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(ticks))
	for layer, n := range ticks {
		if total > 0 {
			shares[layer] = float64(n) / float64(total)
		}
	}
	return shares
}
