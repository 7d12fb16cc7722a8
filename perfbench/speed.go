package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host's processors do the same work at speeds that drift by half or
// more over seconds to minutes as other tenants come and go, and the drift
// shows in process CPU time as much as in wall time. So each timing the
// benchmark compares is divided by the host's slowdown measured next to
// it: a timing reads as the CPU time the work would take on the quiet
// host. The slowdown is measured with reference computations that are the
// benchmark's own code, so a change to the engine does not move them.
//
// Co-tenants slow a program through its arithmetic, its cache and its
// memory accesses, and each reference feels one of them: sorting, hashing
// and map updates on fixed data; a random walk over a 1 MiB table, which
// lives in the processor's caches; and one over an 8 MiB table, which
// does not. The slowdown is their weighted geometric mean. The weights
// were fitted once, by least squares on the logarithms, to the engine's
// CPU time per engagement over 31 runs on a 2-vCPU Xeon container whose
// host went through quiet and busy spells; they left a standard deviation
// of about 4% between runs where the unscaled figures had 21%. (The fit
// used references four times as long, timed only between segments; the
// nominal times were scaled to the shorter ones.) The nominal times are
// the references' times on that host when it was quiet; they fix the unit
// and nothing else.

// reference is one reference computation.
type reference struct {
	run func()
	// nominalMS is its CPU time on the quiet host.
	nominalMS float64
	// weight is its exponent in the slowdown.
	weight float64
}

var (
	refData               = newRefData()
	cacheWalk, memoryWalk = newWalk(1<<18, 1), newWalk(1<<21, 2)
	references            = []reference{
		{run: refData.compute, nominalMS: 0.65, weight: 0.6},
		{run: func() { cacheWalk.walk(50000) }, nominalMS: 0.36, weight: 0.2},
		{run: func() { memoryWalk.walk(12500) }, nominalMS: 0.97, weight: 0.2},
	}
)

// refTries is how many times a probe runs each reference; it keeps the
// fastest, which is a run with the reference's data already in the
// caches, since the work between probes evicts it.
const refTries = 2

// slowdown measures how much slower than on the quiet host the references
// run now. One probe takes about 4 ms.
func slowdown() float64 {
	logSum := 0.0
	for _, r := range references {
		best := math.Inf(1)
		for i := 0; i < refTries; i++ {
			c0 := processCPU()
			r.run()
			best = math.Min(best, ms(processCPU()-c0))
		}
		logSum += r.weight * math.Log(best/r.nominalMS)
	}
	return math.Exp(logSum)
}

// probeEvery is how much CPU time passes between two probes of the
// slowdown while a segment runs: the host's speed changes within a
// second, so a segment's slowdown is the median of the probes taken
// through it (about 5% of its CPU time), not of its two ends.
const probeEvery = 60 * time.Millisecond

// speedMeter probes the host's slowdown through one segment.
type speedMeter struct {
	probes []float64
	next   time.Duration // process CPU time at which the next probe is due
	spent  time.Duration // CPU time the probes inside the segment used
}

// start opens a segment with a probe.
func (s *speedMeter) start() {
	s.probes, s.spent = []float64{slowdown()}, 0
	s.next = processCPU() + probeEvery
}

// tick probes if probeEvery of CPU time has passed since the last probe.
// The workloads call it between operations.
func (s *speedMeter) tick() {
	now := processCPU()
	if now < s.next {
		return
	}
	s.probes = append(s.probes, slowdown())
	end := processCPU()
	s.spent += end - now
	s.next = end + probeEvery
}

// end closes the segment with a probe and returns its slowdown and the
// CPU time the probes inside it used, which the caller takes out of the
// segment's own.
func (s *speedMeter) end() (slow float64, spent time.Duration) {
	s.probes = append(s.probes, slowdown())
	return median(s.probes), s.spent
}

// refCompute is the arithmetic reference's fixed data.
type refCompute struct {
	keys, work []uint64
	buf        []byte
	m          map[uint64]uint64
	sink       uint64
}

func newRefData() *refCompute {
	rng := rand.New(rand.NewSource(42))
	k := &refCompute{keys: make([]uint64, 1<<13), work: make([]uint64, 1<<13),
		buf: make([]byte, 32<<10), m: make(map[uint64]uint64, 1<<10)}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	rng.Read(k.buf)
	return k
}

// compute sorts, hashes and updates a map, allocating nothing.
func (k *refCompute) compute() {
	copy(k.work, k.keys)
	slices.Sort(k.work)
	s := sha256.Sum256(k.buf)
	clear(k.m)
	for i, v := range k.keys[:1<<10] {
		k.m[v>>52] += uint64(i)
	}
	k.sink += k.work[7] + uint64(s[0]) + uint64(len(k.m))
}

// walkTable is a random cyclic permutation to chase through.
type walkTable struct {
	next []uint32
	sink uint32
}

// newWalk builds a single cycle through n slots with Sattolo's algorithm.
// The table lives outside the Go heap, so it does not change when the
// engine's garbage collections run.
func newWalk(n int, seed int64) *walkTable {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("mmap: " + err.Error())
	}
	rng := rand.New(rand.NewSource(seed))
	w := &walkTable{next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)}
	for i := range w.next {
		w.next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		w.next[i], w.next[j] = w.next[j], w.next[i]
	}
	return w
}

// walk follows steps links, each load depending on the one before.
func (w *walkTable) walk(steps int) {
	p := w.sink
	for i := 0; i < steps; i++ {
		p = w.next[p]
	}
	w.sink = p
}
