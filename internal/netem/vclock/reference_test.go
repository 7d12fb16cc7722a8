package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The differential harness drives the clock and a brute-force reference
// scheduler with the same randomized script — schedules across lane-shaped
// delay classes (long runs of one delay, concurrent distinct delays that
// spill to the heap and re-key the lane as it drains, delays one
// nanosecond off the lane's key, hour-scale delays, zero and negative
// clamps), cancellations, nested scheduling from inside callbacks, partial
// drains, and forks — and requires byte-identical logs: same fire order,
// same timestamps, same Pending counts, same Fork seq parity. The reference is deliberately the dumbest
// possible implementation (linear scan for the (at, seq) minimum), so any
// divergence indicts the clock's lane routing, re-keying, heap, or Stop
// bookkeeping, never the oracle.

// sched abstracts the two implementations behind one driving surface.
type sched interface {
	schedule(delayNS int64, kindSel int, fn func()) (stop func() bool)
	scheduleAt(atNS int64, fn func())
	step() (bool, error)
	run() error
	runUntil(atNS int64) error
	nowNS() int64
	seq() uint64
	pending() int
	fork() sched
}

// clockSched adapts *Clock. kindSel picks the public scheduling API so the
// closure, pair, and registered-index paths all get differential coverage.
type clockSched struct {
	c     *Clock
	reg   FnID
	tramp []func() // trampoline slots for the ScheduleIdx path
	free  []uint32
}

func newClockSched() *clockSched {
	w := &clockSched{c: New()}
	w.bind()
	return w
}

func (w *clockSched) bind() {
	w.reg = w.c.RegisterFn(func(arg uint32) {
		fn := w.tramp[arg]
		w.tramp[arg] = nil
		w.free = append(w.free, arg)
		fn()
	})
}

func (w *clockSched) schedule(delayNS int64, kindSel int, fn func()) func() bool {
	var t Timer
	switch kindSel % 3 {
	case 0:
		t = w.c.Schedule(time.Duration(delayNS), fn)
	case 1:
		t = w.c.ScheduleArg(time.Duration(delayNS), func(a any) { a.(func())() }, fn)
	default:
		var slot uint32
		if n := len(w.free); n > 0 {
			slot = w.free[n-1]
			w.free = w.free[:n-1]
			w.tramp[slot] = fn
		} else {
			w.tramp = append(w.tramp, fn)
			slot = uint32(len(w.tramp) - 1)
		}
		t = w.c.ScheduleIdx(time.Duration(delayNS), w.reg, slot)
	}
	return t.Stop
}

func (w *clockSched) scheduleAt(atNS int64, fn func()) {
	w.c.ScheduleAt(Epoch.Add(time.Duration(atNS)), fn)
}

func (w *clockSched) step() (bool, error)       { return w.c.Step() }
func (w *clockSched) run() error                { return w.c.Run() }
func (w *clockSched) runUntil(atNS int64) error { return w.c.RunUntil(Epoch.Add(time.Duration(atNS))) }
func (w *clockSched) nowNS() int64              { return w.c.NowNS() }
func (w *clockSched) seq() uint64               { return w.c.Seq() }
func (w *clockSched) pending() int              { return w.c.Pending() }
func (w *clockSched) fork() sched {
	nw := &clockSched{c: w.c.Fork()}
	nw.bind()
	return nw
}

// refSched is the oracle: a flat slice scanned linearly for the minimum
// (at, seq) live event.
type refEvent struct {
	at   int64
	seq  uint64
	fn   func()
	dead bool
}

type refSched struct {
	now    int64
	seqCtr uint64
	evs    []*refEvent
}

func (r *refSched) schedule(delayNS int64, _ int, fn func()) func() bool {
	if delayNS < 0 {
		delayNS = 0
	}
	return r.at(r.now+delayNS, fn)
}

func (r *refSched) scheduleAt(atNS int64, fn func()) { r.at(atNS, fn) }

func (r *refSched) at(atNS int64, fn func()) func() bool {
	if atNS < r.now {
		atNS = r.now
	}
	r.seqCtr++
	e := &refEvent{at: atNS, seq: r.seqCtr, fn: fn}
	r.evs = append(r.evs, e)
	return func() bool {
		if e.dead || e.fn == nil {
			return false
		}
		e.dead = true
		return true
	}
}

func (r *refSched) step() (bool, error) { return r.stepLimit(int64(1)<<62 - 1) }

func (r *refSched) stepLimit(limit int64) (bool, error) {
	best := -1
	for i, e := range r.evs {
		if e.dead || e.fn == nil {
			continue
		}
		if best < 0 || e.at < r.evs[best].at || (e.at == r.evs[best].at && e.seq < r.evs[best].seq) {
			best = i
		}
	}
	if best < 0 || r.evs[best].at > limit {
		return false, nil
	}
	e := r.evs[best]
	r.now = e.at
	fn := e.fn
	e.fn = nil
	fn()
	return true, nil
}

func (r *refSched) run() error {
	for {
		ok, err := r.stepLimit(int64(1)<<62 - 1)
		if err != nil || !ok {
			return err
		}
	}
}

func (r *refSched) runUntil(atNS int64) error {
	for {
		ok, err := r.stepLimit(atNS)
		if err != nil || !ok {
			break
		}
	}
	if r.now < atNS {
		r.now = atNS
	}
	return nil
}

func (r *refSched) nowNS() int64 { return r.now }
func (r *refSched) seq() uint64  { return r.seqCtr }
func (r *refSched) pending() int {
	n := 0
	for _, e := range r.evs {
		if !e.dead && e.fn != nil {
			n++
		}
	}
	return n
}
func (r *refSched) fork() sched { return &refSched{now: r.now, seqCtr: r.seqCtr} }

// linkDelay is the delay most simulator traffic schedules with (netem's
// default LinkDelay), so it dominates the lane-hit classes below.
const linkDelay = int64(time.Millisecond)

// spillDelays are several distinct fixed delays: drawn concurrently, one
// keeps the lane busy and the rest spill to the heap, and as the lane
// drains it is re-keyed among these values.
var spillDelays = []int64{linkDelay, 3 * linkDelay, 7 * linkDelay, 40 * linkDelay, int64(time.Second), int64(3 * time.Minute)}

// delayFor maps a class byte to a delay exercising a distinct path.
func delayFor(class byte, rng *rand.Rand) int64 {
	switch class % 8 {
	case 0:
		return 0 // same instant (d = 0)
	case 1, 2:
		return linkDelay // long runs of one delay: lane hits
	case 3:
		return spillDelays[rng.Intn(len(spillDelays))] // lane churn and heap spill
	case 4:
		return linkDelay + rng.Int63n(3) - 1 // one ns either side of a lane key
	case 5:
		return rng.Int63n(4 * linkDelay) // mostly distinct delays: heap
	case 6:
		return int64(time.Hour) + rng.Int63n(int64(48*time.Hour)) // Figure 4 scale
	default:
		return -rng.Int63n(1 << 30) // negative: clamps to now
	}
}

// runScript interprets data as an op program against s, returning the log.
func runScript(s sched, data []byte) string {
	var log strings.Builder
	rng := rand.New(rand.NewSource(12345)) // same stream for both drivers
	var stops []func() bool
	nextID := 0
	var mkFn func(depth int) func()
	mkFn = func(depth int) func() {
		id := nextID
		nextID++
		// Nested behavior is derived from the id, so both drivers' events
		// perform identical actions when (and only when) fired in the same
		// order at the same instants.
		return func() {
			fmt.Fprintf(&log, "fire %d @%d\n", id, s.nowNS())
			if depth < 2 {
				switch id % 5 {
				case 0: // same-instant burst from inside a callback
					n := 1 + id%3
					for i := 0; i < n; i++ {
						stops = append(stops, s.schedule(0, id+i, mkFn(depth+1)))
					}
				case 1: // next hop: a lane-keyed reschedule
					s.schedule(linkDelay, id, mkFn(depth+1))
				case 2: // cancel a random earlier timer from inside a callback
					if len(stops) > 0 {
						k := id % len(stops)
						fmt.Fprintf(&log, "nested-stop %d %v\n", k, stops[k]())
					}
				}
			}
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, p := data[i], data[i+1]
		switch op % 7 {
		case 0, 1: // schedule (weighted: most common op)
			d := delayFor(p, rng)
			stops = append(stops, s.schedule(d, int(p), mkFn(0)))
		case 2: // scheduleAt, often in the past (clamped to d = 0)
			at := s.nowNS() + delayFor(p, rng) - int64(p)<<16
			s.scheduleAt(at, mkFn(0))
			nextIDCheck(&log, s)
		case 3: // cancel
			if len(stops) > 0 {
				k := int(p) % len(stops)
				fmt.Fprintf(&log, "stop %d %v\n", k, stops[k]())
			}
		case 4: // partial drain: parks with lane heads past the deadline
			d := s.nowNS() + delayFor(p, rng)/2 + int64(p)
			if err := s.runUntil(d); err != nil {
				fmt.Fprintf(&log, "rununtil err %v\n", err)
			}
			fmt.Fprintf(&log, "rununtil @%d pend %d\n", s.nowNS(), s.pending())
		case 5: // single steps
			for n := 0; n < int(p%4)+1; n++ {
				ok, err := s.step()
				fmt.Fprintf(&log, "step %v %v @%d\n", ok, err, s.nowNS())
			}
		case 6: // fork parity: seq/now carried, fresh queue replays identically
			f := s.fork()
			fmt.Fprintf(&log, "fork seq %d now %d pend %d\n", f.seq(), f.nowNS(), f.pending())
			f.schedule(delayFor(p, rng), int(p), func() {
				fmt.Fprintf(&log, "fork-fire-a @%d\n", f.nowNS())
			})
			f.schedule(0, int(p)+1, func() {
				fmt.Fprintf(&log, "fork-fire-b @%d\n", f.nowNS())
			})
			if err := f.run(); err != nil {
				fmt.Fprintf(&log, "fork err %v\n", err)
			}
			fmt.Fprintf(&log, "fork done seq %d @%d\n", f.seq(), f.nowNS())
		}
	}
	if err := s.run(); err != nil {
		fmt.Fprintf(&log, "run err %v\n", err)
	}
	fmt.Fprintf(&log, "end @%d pend %d seq %d\n", s.nowNS(), s.pending(), s.seq())
	return log.String()
}

func nextIDCheck(log *strings.Builder, s sched) {
	fmt.Fprintf(log, "pend %d seq %d\n", s.pending(), s.seq())
}

func diffScripts(t *testing.T, data []byte) {
	t.Helper()
	got := runScript(newClockSched(), data)
	want := runScript(&refSched{}, data)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("divergence at log line %d:\n  clock: %q\n  ref:   %q\n(script %x)", i, gl[i], wl[i], data)
			}
		}
		t.Fatalf("log length mismatch: clock %d lines, ref %d lines (script %x)", len(gl), len(wl), data)
	}
}

// TestWheelMatchesReferenceRandom drives several hundred randomized
// scripts through the clock and the reference. Run with -race in CI.
func TestWheelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11b3247e))
	for script := 0; script < 300; script++ {
		n := 8 + rng.Intn(120)
		data := make([]byte, n)
		rng.Read(data)
		diffScripts(t, data)
	}
}

// TestWheelSameTickBurst pins same-instant bursts: a callback-scheduled
// burst at d = 0 must fire FIFO, interleaved correctly with events one
// link delay later.
func TestWheelSameTickBurst(t *testing.T) {
	diffScripts(t, []byte{
		0, 0, 0, 0, 0, 0, // three same-instant roots
		0, 1, 0, 1, // link-delay followers
		5, 2, // a couple of single steps
		0, 0, 4, 1, // more roots, partial drain
	})
}

// TestWheelDeadlineSplitsTick pins RunUntil parking: a deadline that falls
// between queued instants leaves the later lane and heap heads queued, and
// schedules made after the park that land below them fire first.
func TestWheelDeadlineSplitsTick(t *testing.T) {
	c := New()
	var order []string
	base := Epoch.Add(10 * time.Millisecond)
	c.ScheduleAt(base.Add(100), func() { order = append(order, "a") })
	c.ScheduleAt(base.Add(900), func() { order = append(order, "d") })
	c.ScheduleAt(base.Add(900), func() { order = append(order, "e") })
	if err := c.RunUntil(base.Add(500)); err != nil {
		t.Fatal(err)
	}
	// Below the parked heads, through a lane (400ns from the parked now)
	// and the heap.
	c.ScheduleAt(base.Add(600), func() { order = append(order, "b") })
	c.ScheduleAt(base.Add(700), func() { order = append(order, "c") })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcde" {
		t.Fatalf("fire order = %q, want abcde", got)
	}
}

// TestStopLaneAndHeapEntries cancels a lane head, a lane middle, a lane
// tail and a heap entry, and checks the survivors fire in (at, seq) order
// with the lane compacted behind them.
func TestStopLaneAndHeapEntries(t *testing.T) {
	c := New()
	var order []int
	mk := func(id int) func() { return func() { order = append(order, id) } }
	var lane []Timer
	for i := 0; i < 6; i++ {
		lane = append(lane, c.Schedule(time.Millisecond, mk(i)))
	}
	// The lane is keyed to 1ms, so other delays go to the heap.
	var heap []Timer
	for i := 0; i < 3; i++ {
		heap = append(heap, c.Schedule(time.Duration(2+i)*time.Millisecond, mk(10+i)))
	}
	if c.slab[heap[len(heap)-1].h].pos < 0 {
		t.Fatal("a second delay joined the lane")
	}
	for _, tm := range []Timer{lane[0], lane[3], lane[5], heap[len(heap)-1]} {
		if !tm.Stop() {
			t.Fatal("Stop of a live timer returned false")
		}
	}
	l := &c.lane
	if n := len(l.q) - l.head; n != 4 || l.q[l.head].h != lane[1].h {
		t.Fatalf("lane holds %d entries from handle %d, want the 4 from lane[1] to lane[4]", n, l.q[l.head].h)
	}
	if c.Pending() != 6+len(heap)-4 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	for i := 0; i < len(heap)-1; i++ {
		want = append(want, 10+i)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// TestLaneBoundedUnderCancelChurn keeps a lane busy while cancelling into
// it: per fired event, one survivor, one cancelled middle entry and one
// cancelled tail entry. The lane never drains, so only trimming and reuse
// of its drained front keep its storage bounded.
func TestLaneBoundedUnderCancelChurn(t *testing.T) {
	c := New()
	fn := c.RegisterFn(func(uint32) {})
	for i := 0; i < 64; i++ {
		c.ScheduleIdx(time.Millisecond, fn, 0)
	}
	for i := 0; i < 100000; i++ {
		middle := c.ScheduleIdx(time.Millisecond, fn, 0)
		c.ScheduleIdx(time.Millisecond, fn, 0)
		tail := c.ScheduleIdx(time.Millisecond, fn, 0)
		middle.Stop()
		tail.Stop()
		if ok, err := c.Step(); err != nil || !ok {
			t.Fatal("empty clock under churn")
		}
	}
	if n := cap(c.lane.q); n > 1024 {
		t.Fatalf("lane grew to capacity %d under cancel churn", n)
	}
	if len(c.slab) > 256 {
		t.Fatalf("slab grew to %d records under cancel churn", len(c.slab))
	}
}

// FuzzClockVsReference lets the fuzzer hunt for schedule/cancel/run
// interleavings where the clock and the reference disagree.
func FuzzClockVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 0, 32, 4, 9, 0, 48, 3, 1, 5, 2})
	f.Add([]byte{0, 6, 0, 6, 4, 200, 0, 5, 6, 7, 0, 0, 5, 3})
	f.Add([]byte{2, 255, 0, 7, 3, 0, 0, 64, 4, 128, 0, 0, 0, 1, 5, 1, 6, 9})
	// A long run of one delay with a stop in the middle, then a drain.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 2, 0, 1, 0, 1, 4, 9, 5, 3})
	// Concurrent distinct delays, stops, re-keying drains.
	f.Add([]byte{0, 3, 0, 11, 0, 19, 0, 27, 0, 5, 3, 1, 3, 3, 5, 3, 0, 4, 0, 12, 4, 17, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip()
		}
		diffScripts(t, data)
	})
}
