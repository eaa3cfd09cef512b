package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuBuckets are the rows of the host-time table, in print order. The
// control plane is platform, operator, csiplugin and core together.
var cpuBuckets = []string{
	"sim", "platform", "operator", "csiplugin", "core", "workload", "db", "wal",
	"storage", "analytics", "replication", "fabric", "netlink",
	"gc", "verify", "sampler", "trace", "bench", "other",
}

// controlBuckets make up the control.cpu_share row.
var controlBuckets = []string{"platform", "operator", "csiplugin", "core"}

// attributeProfile reads a CPU profile and returns each bucket's share of
// the samples. A sample goes to:
//   - verify when any frame is the benchmark's verification, which calls
//     into the layers but is not the system;
//   - sampler or trace when any frame is the benchmark's RPO sampler or
//     span tracer, which run inside the kernel's advance hook and the
//     simulated processes;
//   - otherwise the innermost frame in a repro/internal/<pkg> package, so
//     runtime work under a layer (memclr under Snapshot.ReadRange, a GC
//     assist in an allocation) counts as that layer;
//   - gc for the garbage collector's background work;
//   - bench for other benchmark frames, and other for the rest.
func attributeProfile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	counts := make(map[string]int64, len(cpuBuckets))
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		var names []string
		for _, locID := range s.locations {
			for _, fnID := range prof.locations[locID] {
				names = append(names, prof.strings[prof.functions[fnID]])
			}
		}
		counts[bucketOf(names)] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, nil
}

// bucketOf classifies one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "main.verify"):
			return "verify"
		case strings.HasPrefix(fn, "main.(*rpoSampler)"):
			return "sampler"
		case strings.HasPrefix(fn, "main.(*tracer)"):
			return "trace"
		}
	}
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, b := range cpuBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		}
	}
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"):
			return "gc"
		case strings.HasPrefix(fn, "main."):
			return "bench"
		}
	}
	return "other"
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses the protocol-buffer encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
