package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers maps package paths to the layer names the per-layer metrics use.
// More specific paths come first.
var layers = []struct{ pkg, layer string }{
	{"repro/internal/netem/vclock", "vclock"},
	{"repro/internal/netem/packet", "packet"},
	{"repro/internal/netem/stack", "stack"},
	{"repro/internal/netem", "netem"},
	{"repro/internal/dpi", "dpi"},
	{"repro/internal/trace", "trace"},
	{"repro/internal/replay", "replay"},
	{"repro/internal/core", "core"},
	{"repro/internal/campaign", "campaign"},
	{"repro/internal/cluster", "cluster"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// cpuLayers are the layers reported as cpu.<layer>.frac.
var cpuLayers = []string{"vclock", "netem", "packet", "stack", "dpi", "trace", "replay",
	"core", "campaign", "cluster", "runtime"}

// packageOf extracts the package path from a profile function name such
// as "repro/internal/netem/vclock.(*Clock).next" or
// "slices.SortFunc[go.shape.struct {...}]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf names the layer a function belongs to, "other" for the rest of
// the standard library and the benchmark itself.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	for _, l := range layers {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.layer
		}
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and returns the self CPU
// time of each layer in nanoseconds, plus the total. A sample's self time
// belongs to its innermost frame: the first line of its first location.
func foldProfile(r io.Reader) (self map[string]float64, total float64, err error) {
	p, err := decodeProfile(r)
	if err != nil {
		return nil, 0, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile: no cpu sample type")
	}
	self = map[string]float64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		total += v
		fn := "unknown"
		if loc, ok := p.locations[s.locs[0]]; ok && len(loc) > 0 {
			fn = p.str(p.functions[loc[0]])
		}
		self[layerOf(fn)] += v
	}
	return self, total, nil
}

// profile is the part of a pprof profile that folding needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function id per line, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the protobuf encoding of profile.proto, reading
// only the fields folding uses.
func decodeProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample
			var s sample
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendInts(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendInts(&vals, w, v, b); err != nil {
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
			err := walk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f, _ int, v uint64, _ []byte) error {
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
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
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
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendInts adds a repeated integer field, packed or not.
func appendInts(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// walk calls fn for every field of one protobuf message: v holds varint
// values, b the payload of length-delimited fields.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		tag, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad tag")
		}
		data = data[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case wire32:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		case wireBytes:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the bytes read (0 on error).
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

// cpuFracs turns folded self times into cpu.<layer>.frac metrics.
func cpuFracs(m metrics, self map[string]float64, total float64) {
	for _, l := range cpuLayers {
		m.set("cpu."+l+".frac", frac(self[l], total), "frac")
	}
}
