package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: a runtime/pprof CPU profile of the traced run is decoded
// here and every sample is charged to the innermost pqs package on its
// stack, so a write syscall under the flusher is `transport`, ed25519 under
// VerifyEntry is `sv`, mallocgc under AppendEnvelope is `wire`. Stacks with
// no pqs frame (scheduler, GC workers) are `proc.sched`. The shares sum to 1.
//
// The profile is a gzipped profile.proto; the few fields needed are read
// with the minimal protobuf walker below instead of shelling out to
// `go tool pprof -traces`, so a traced run needs neither a temp file nor
// the go tool on PATH.

// cpuLayers are the layers a sample can be charged to, by module name.
// `other` collects pqs packages that are not data-path layers (the pqs
// facade, ring, config, combin, diffusion); `bench` is this benchmark.
var cpuLayers = []string{
	"quorum", "register", "wire", "transport", "replica", "sv", "ts",
	"vtime", "load", "chaos", "sim", "core", "bench", "other",
}

const schedLayer = "proc.sched"

// layerOf maps a function's fully qualified name to its layer, or "".
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "pqs."):
		return "other"
	case strings.HasPrefix(fn, "pqs/internal/"):
		pkg := strings.TrimPrefix(fn, "pqs/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "pqs/"):
		return "other"
	}
	return ""
}

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

var errProto = errors.New("malformed profile")

// pbWalk calls fn for every field of a protobuf message.
func pbWalk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, n = pbVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated integer field, packed or not.
func pbRepeated(dst []uint64, f pbField) []uint64 {
	if f.data == nil {
		return append(dst, f.val)
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

// cpuShares decodes a CPU profile and returns each layer's share of the
// sampled CPU time (keys: cpuLayers and schedLayer) and the sample count.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs         []uint64
		count, nanos uint64
	}
	var samples []sample
	var strs []string
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string table index
	err = pbWalk(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample: location_id = 1 (leaf first), value = 2
			var s sample
			var vals []uint64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					s.locs = pbRepeated(s.locs, g)
				case 2:
					vals = pbRepeated(vals, g)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 { // a CPU profile's values are [samples, cpu nanoseconds]
				s.count, s.nanos = vals[0], vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fns []uint64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					return pbWalk(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	byLayer := map[string]float64{schedLayer: 0}
	for _, l := range cpuLayers {
		byLayer[l] = 0
	}
	var total float64
	count := 0
	for _, s := range samples {
		layer := schedLayer
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					if l := layerOf(strs[idx]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		byLayer[layer] += float64(s.nanos)
		total += float64(s.nanos)
		count += int(s.count)
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile: no samples")
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, count, nil
}
