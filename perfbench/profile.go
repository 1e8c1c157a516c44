package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostModules are the layers a CPU profile's self time is split into.
// Every sample lands in exactly one of them.
var hostModules = []string{
	"cpu", "mmu", "mem", "pac", "qarma", "kernel", "snapshot", "server",
	"transport", "gc", "other",
}

// simModules are the repository packages that get a share of their own;
// any other repository package counts as "other".
var simModules = map[string]bool{
	"cpu": true, "mmu": true, "mem": true, "pac": true, "qarma": true,
	"kernel": true, "snapshot": true, "server": true,
}

// transportPkgs are the standard-library packages that carry loopback
// HTTP and JSON: the request path between client and daemon.
var transportPkgs = []string{
	"net", "encoding/json", "bufio", "internal/poll", "syscall", "internal/runtime/syscall",
}

// gcMarkers identify runtime functions that allocate or collect memory.
var gcMarkers = []string{
	"gc", "scan", "mark", "sweep", "grey", "findObject", "wbBuf", "heapBits",
	"typePointers", "malloc", "mheap", "mspan", "mcache", "mcentral", "nextFreeFast",
}

// moduleOf maps a profiled function's full name (as pprof records it,
// e.g. "camouflage/internal/qarma.(*Cipher).Encrypt") to its host
// module.
func moduleOf(fn string) string {
	pkg := pkgOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "camouflage/internal/"); ok {
		if simModules[rest] {
			return rest
		}
		return "other"
	}
	for _, p := range transportPkgs {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return "transport"
		}
	}
	if pkg == "runtime" {
		name := strings.TrimPrefix(fn, "runtime.")
		for _, m := range gcMarkers {
			if strings.Contains(name, m) {
				return "gc"
			}
		}
	}
	return "other"
}

// pkgOf strips the symbol from a function name, leaving its import
// path: the path runs to the first '.' after the last '/'.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hostShares decodes a gzipped pprof CPU profile and returns each host
// module's share of the profile's self time (leaf frames, inlined
// callees charged to themselves). The shares sum to 1 unless the
// profile holds no samples.
func hostShares(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		fn := ""
		if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
			fn = p.strings[p.funcNames[lines[0]]]
		}
		by[moduleOf(fn)] += v
		total += v
	}
	out := make(map[string]float64, len(hostModules))
	for _, m := range hostModules {
		out[m] = ratio(by[m], total)
	}
	return out, nil
}

// profile is the subset of the pprof protobuf message hostShares needs.
type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string-table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of the pprof profile.proto messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, b)
				case fSampleValue:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls f for every field of a protobuf message: v carries
// varint and fixed-width values, b the payload of length-delimited
// ones (for which v is unused).
func walkFields(buf []byte, f func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated scalar field's values: one value
// when it arrived unpacked (b == nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
