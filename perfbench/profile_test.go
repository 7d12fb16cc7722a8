package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/netem/vclock.(*Clock).next":                                       "vclock",
		"repro/internal/netem/vclock.(*Clock).stage.func1":                                "vclock",
		"repro/internal/netem.(*Env).deliverBatch":                                        "netem",
		"repro/internal/netem/packet.(*Arena).FrameOf":                                    "packet",
		"repro/internal/netem/stack.(*Client).onSegment":                                  "stack",
		"repro/internal/dpi.(*ruleProgram).matchOnce":                                     "dpi",
		"repro/internal/trace.(*Trace).Invert":                                            "trace",
		"repro/internal/replay.Run":                                                       "replay",
		"repro/internal/core.Detect":                                                      "core",
		"repro/internal/campaign.(*Store).get":                                            "campaign",
		"repro/internal/cluster.(*Daemon).handleAnswer":                                   "cluster",
		"runtime.mallocgc":                                                                "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                                          "runtime",
		"encoding/json.(*decodeState).object":                                             "other",
		"main.main":                                                                       "other",
		"repro/internal/netemx.fake":                                                      "other",
		"slices.pdqsortCmpFunc[go.shape.struct { repro/internal/netem/vclock.at int64 }]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | wireVarint); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.Bytes())
}

// testProfile encodes a CPU profile with four functions. Location 4 is an
// inlined frame: dpi code inlined into its core caller.
func testProfile(packed bool) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/netem/vclock.(*Clock).next", "runtime.mallocgc",
		"repro/internal/dpi.(*ruleProgram).matchOnce", "repro/internal/core.Detect"}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var v pb
		v.uint(1, st[0])
		v.uint(2, st[1])
		p.bytes(1, v.Bytes())
	}
	sample := func(value uint64, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
			s.packed(2, value/1e7, value)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
			s.uint(2, value/1e7)
			s.uint(2, value)
		}
		p.bytes(2, s.Bytes())
	}
	sample(30e6, 1, 4) // vclock leaf, called from core
	sample(20e6, 2, 1) // runtime leaf
	sample(40e6, 4)    // dpi inlined into core: dpi is innermost
	sample(10e6, 3)    // core leaf
	for id, fns := range map[uint64][]uint64{1: {1}, 2: {2}, 3: {4}, 4: {3, 4}} {
		var l pb
		l.uint(1, id)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.Bytes())
		}
		p.bytes(4, l.Bytes())
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		var f pb
		f.uint(1, id)
		f.uint(2, name)
		p.bytes(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestFoldProfileByPackage(t *testing.T) {
	for _, packed := range []bool{true, false} {
		self, total, err := foldProfile(bytes.NewReader(testProfile(packed)))
		if err != nil {
			t.Fatal(err)
		}
		if total != 100e6 {
			t.Errorf("packed=%v: total %g, want 1e8", packed, total)
		}
		want := map[string]float64{"vclock": 30e6, "runtime": 20e6, "dpi": 40e6, "core": 10e6}
		for layer, ns := range want {
			if self[layer] != ns {
				t.Errorf("packed=%v: self[%s] = %g, want %g", packed, layer, self[layer], ns)
			}
		}
		m := metrics{}
		cpuFracs(m, self, total)
		if got := m["cpu.dpi.frac"].Value; math.Abs(got-0.4) > 1e-12 {
			t.Errorf("cpu.dpi.frac = %g, want 0.4", got)
		}
	}
}

var sink float64

// A real profile from runtime/pprof folds, and its busy loop lands in
// "other" (package main).
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	self, total, err := foldProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || self["other"] <= 0 {
		t.Errorf("total %g, other %g: expected samples in package main", total, self["other"])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte{0x12, 0xff}) // length runs past the end
	zw.Close()
	if _, _, err := foldProfile(&z); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
