// Package vclock implements a deterministic discrete-event virtual clock.
//
// All simulated components in this repository schedule work against a
// *Clock instead of the wall clock. This keeps every experiment — including
// the paper's two-day Figure 4 sweep and the 240-second classification-flush
// probes — deterministic and able to run in milliseconds of real time.
//
// The clock is single-threaded by design: Run drains the event queue in
// timestamp order, and ties are broken by insertion order so that repeated
// runs of the same experiment produce byte-identical results.
//
// Internally time is an int64 nanosecond offset from Epoch and the queue is
// a FIFO lane holding only events scheduled with one exact delay (netem's
// link delay, in practice) beside a 4-ary min-heap for every other event. Events live in
// a flat pointer-free slab addressed by uint32 handles, and callbacks are
// referenced by registry index rather than stored function values — so
// scheduling and firing an event in steady state writes no pointers (the
// GC write barrier never runs on the hot path) and allocates nothing.
// Events fire in exact (at, seq) order (DESIGN.md §14 states the
// invariants).
package vclock

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// noHandle tombstones a cancelled lane entry.
const noHandle = ^uint32(0)

// Event callback kinds. The registry a record's fn index points into is
// selected by kind, so the slab itself stays pointer-free.
const (
	kindClosure uint8 = iota // fn indexes Clock.closures
	kindPair                 // fn indexes Clock.pairs
	kindIdx                  // fn indexes Clock.regFns; arg is passed through
)

// eventRec is one scheduled event in the flat slab. It contains no
// pointers, so scheduling writes integers only and the GC write barrier
// never fires.
type eventRec struct {
	seq  uint64 // insertion order; locates a lane entry on Stop
	gen  uint32 // bumped on recycle so stale Timers cannot cancel the new tenant
	fn   uint32 // registry slot, interpreted per kind
	arg  uint32 // kindIdx argument
	pos  int32  // heap index; -1 while the event waits in the lane
	kind uint8
}

// entry is one queued event: its firing key inline, so choosing the next
// event compares entries without touching the slab. Pointer-free like the
// slab.
type entry struct {
	at  int64
	seq uint64
	h   uint32 // slab handle; noHandle marks a cancelled lane entry
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// lane is a FIFO of events all scheduled with delay d. Because now never
// decreases and seq only grows, at = now+d arrives in (at, seq) order, so
// appending keeps the lane sorted. A non-empty lane's head and tail are
// live: Stop trims cancelled entries from both ends and tombstones the
// rest in place.
type lane struct {
	d    int64
	q    []entry
	head int
}

func (l *lane) empty() bool { return l.head == len(l.q) }

func (l *lane) push(e entry) {
	if len(l.q) == cap(l.q) && l.head > len(l.q)/2 {
		// Reuse the drained front instead of growing.
		n := copy(l.q, l.q[l.head:])
		l.q = l.q[:n]
		l.head = 0
	}
	l.q = append(l.q, e)
}

// skipDead advances past cancelled entries at the head, and resets the
// lane once it is empty so a later push starts at the front.
func (l *lane) skipDead() {
	for l.head < len(l.q) && l.q[l.head].h == noHandle {
		l.head++
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
	}
}

// remove cancels the entry with the given seq. Entries are sorted by seq,
// so a binary search finds it.
func (l *lane) remove(seq uint64) {
	lo, hi := l.head, len(l.q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.q[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.q[lo].h = noHandle
	for n := len(l.q); n > l.head && l.q[n-1].h == noHandle; n-- {
		l.q = l.q[:n-1]
	}
	l.skipDead()
}

// argPair backs ScheduleArg: a long-lived function value plus its argument,
// parked in a registry slot so the event record itself stays pointer-free.
type argPair struct {
	fn  func(any)
	arg any
}

// FnID names a callback registered with RegisterFn.
type FnID uint32

// Timer is a handle to a scheduled event that can be cancelled. The handle
// remembers the event's generation so a Stop after the event has fired and
// its record has been recycled is a safe no-op.
type Timer struct {
	c   *Clock
	h   uint32
	gen uint32
}

// Stop cancels the timer. Stopping an already-fired or already-stopped
// timer is a no-op. It reports whether the call prevented the event from
// firing.
func (t *Timer) Stop() bool {
	if t == nil || t.c == nil {
		return false
	}
	c := t.c
	r := &c.slab[t.h]
	if r.gen != t.gen {
		return false
	}
	c.live--
	c.freeSlot(r.kind, r.fn)
	if r.pos < 0 {
		c.lane.remove(r.seq)
	} else {
		c.heapRemove(int(r.pos))
	}
	c.recycleHandle(t.h)
	return true
}

// Clock is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with New.
type Clock struct {
	now int64 // nanoseconds since Epoch
	seq uint64
	// Budget guards against runaway simulations: Run stops with an error
	// after this many events when > 0.
	Budget int
	fired  int
	live   int // scheduled, unfired, uncancelled events — Pending() is O(1)

	slab  []eventRec
	freeh []uint32 // recycled slab handles

	// lane holds the events scheduled with delay lane.d. Nearly all of the
	// simulator's schedules use netem's LinkDelay, so one lane carries
	// them; two lanes measured no faster and four slower (EXPERIMENTS.md).
	lane lane
	heap []entry // 4-ary min-heap on (at, seq) of every other event

	// Callback registries. regFns holds long-lived functions installed
	// once per clock (RegisterFn); closures/pairs are per-event slots
	// recycled through free lists.
	regFns   []func(uint32)
	closures []func()
	closFree []uint32
	pairs    []argPair
	pairFree []uint32

	// rec receives scheduler counters when tracing is armed; traced
	// caches rec.Enabled() so the disabled path costs one bool test.
	rec    obs.Recorder
	traced bool
}

// Epoch is the instant at which every new Clock starts. Using a fixed,
// recognizable epoch (midnight UTC) makes time-of-day experiments such as
// the Figure 4 sweep easy to express.
var Epoch = time.Date(2017, time.November, 1, 0, 0, 0, 0, time.UTC)

// New returns a clock positioned at Epoch with an empty event queue.
func New() *Clock { return &Clock{} }

// SetRecorder installs the observability recorder the clock's scheduler
// counters (vclock_fired / vclock_fastpath) feed. Nil or obs.Nop disables
// them.
func (c *Clock) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	c.rec = r
	c.traced = r.Enabled()
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return Epoch.Add(time.Duration(c.now)) }

// NowNS returns the current virtual time as integer nanoseconds since
// Epoch — the timestamp form observability events carry.
func (c *Clock) NowNS() int64 { return c.now }

// Seq returns the insertion-order counter, which advances on every
// schedule call. Batching callers (netem's delivery runs) use it as a
// fence: a batch may only be extended while Seq is unchanged since the
// batch was scheduled, which proves no other event slotted in between the
// batched records' would-have-been queue positions.
func (c *Clock) Seq() uint64 { return c.seq }

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// RegisterFn installs a long-lived callback and returns its FnID for use
// with ScheduleIdx. Registration is per clock (forks register their own)
// and permanent; it is meant for a handful of subsystem dispatchers (e.g.
// netem's batch delivery), not per-event use.
func (c *Clock) RegisterFn(fn func(uint32)) FnID {
	c.regFns = append(c.regFns, fn)
	return FnID(len(c.regFns) - 1)
}

// ScheduleIdx runs the registered callback fn(arg) after d of virtual
// time. This is the pointer-free hot-path form: the event record stores
// two integers, so scheduling writes no pointers at all.
func (c *Clock) ScheduleIdx(d time.Duration, fn FnID, arg uint32) Timer {
	if d < 0 {
		d = 0
	}
	return c.scheduleNS(c.now+int64(d), kindIdx, uint32(fn), arg)
}

// Schedule runs fn after d of virtual time has elapsed. A negative d is
// treated as zero. The returned Timer may be used to cancel the event; it
// is returned by value so callers that discard it cost no allocation.
func (c *Clock) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.scheduleNS(c.now+int64(d), kindClosure, c.newClosure(fn), 0)
}

// ScheduleArg runs fn(arg) after d of virtual time has elapsed. It behaves
// like Schedule but keeps the callback and its state separate, so a caller
// on the per-packet hot path can pass a long-lived function value and a
// recycled argument record instead of allocating a closure per event.
func (c *Clock) ScheduleArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return c.scheduleNS(c.now+int64(d), kindPair, c.newPair(fn, arg), 0)
}

// ScheduleAt runs fn at the absolute virtual instant at. Instants in the
// past are clamped to the present.
func (c *Clock) ScheduleAt(at time.Time, fn func()) Timer {
	return c.scheduleNS(int64(at.Sub(Epoch)), kindClosure, c.newClosure(fn), 0)
}

func (c *Clock) newClosure(fn func()) uint32 {
	if n := len(c.closFree); n > 0 {
		s := c.closFree[n-1]
		c.closFree = c.closFree[:n-1]
		c.closures[s] = fn
		return s
	}
	c.closures = append(c.closures, fn)
	return uint32(len(c.closures) - 1)
}

func (c *Clock) newPair(fn func(any), arg any) uint32 {
	if n := len(c.pairFree); n > 0 {
		s := c.pairFree[n-1]
		c.pairFree = c.pairFree[:n-1]
		c.pairs[s] = argPair{fn: fn, arg: arg}
		return s
	}
	c.pairs = append(c.pairs, argPair{fn: fn, arg: arg})
	return uint32(len(c.pairs) - 1)
}

// freeSlot releases a closure or pair registry slot (kindIdx callbacks are
// permanent and own no per-event slot).
func (c *Clock) freeSlot(kind uint8, slot uint32) {
	switch kind {
	case kindClosure:
		c.closures[slot] = nil
		c.closFree = append(c.closFree, slot)
	case kindPair:
		c.pairs[slot] = argPair{}
		c.pairFree = append(c.pairFree, slot)
	}
}

// newHandle returns a fresh or recycled slab handle. Generations persist
// across recycling (bumped at recycle) so Timers from previous tenants
// cannot cancel the new one.
func (c *Clock) newHandle() uint32 {
	if n := len(c.freeh); n > 0 {
		h := c.freeh[n-1]
		c.freeh = c.freeh[:n-1]
		return h
	}
	c.slab = append(c.slab, eventRec{})
	return uint32(len(c.slab) - 1)
}

// recycleHandle retires a fired or cancelled record. Registry slots are
// freed separately: Stop frees on cancel, dispatch frees after extracting
// the callback.
func (c *Clock) recycleHandle(h uint32) {
	c.slab[h].gen++
	c.freeh = append(c.freeh, h)
}

// scheduleNS creates the event record and queues it: in the lane when the
// lane is keyed to its delay or empty (and then re-keyed to it), else in
// the heap.
func (c *Clock) scheduleNS(at int64, kind uint8, fnSlot, arg uint32) Timer {
	if at < c.now {
		at = c.now
	}
	c.seq++
	h := c.newHandle()
	r := &c.slab[h]
	r.seq, r.fn, r.arg, r.kind = c.seq, fnSlot, arg, kind
	gen := r.gen
	c.live++

	e := entry{at: at, seq: c.seq, h: h}
	if d := at - c.now; d == c.lane.d || c.lane.empty() {
		c.lane.d = d
		r.pos = -1
		c.lane.push(e)
		if c.traced {
			c.rec.Add(obs.CtrVClockFastPath, 1)
		}
	} else {
		c.heap = append(c.heap, e)
		c.heapUp(len(c.heap) - 1)
	}
	return Timer{c: c, h: h, gen: gen}
}

// heapSet stores e at heap index i and records the index in its slab
// record so Stop can remove it eagerly.
func (c *Clock) heapSet(i int, e entry) {
	c.heap[i] = e
	c.slab[e.h].pos = int32(i)
}

func (c *Clock) heapUp(i int) {
	e := c.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&c.heap[p]) {
			break
		}
		c.heapSet(i, c.heap[p])
		i = p
	}
	c.heapSet(i, e)
}

func (c *Clock) heapDown(i int) {
	e := c.heap[i]
	n := len(c.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		for k := first + 1; k < first+4 && k < n; k++ {
			if c.heap[k].before(&c.heap[m]) {
				m = k
			}
		}
		if !c.heap[m].before(&e) {
			break
		}
		c.heapSet(i, c.heap[m])
		i = m
	}
	c.heapSet(i, e)
}

// heapRemove deletes the entry at index i.
func (c *Clock) heapRemove(i int) {
	last := len(c.heap) - 1
	moved := c.heap[last]
	c.heap = c.heap[:last]
	if i == last {
		return
	}
	c.heap[i] = moved
	c.heapDown(i)
	c.heapUp(int(c.slab[moved.h].pos))
}

// next pops the earliest live event with at ≤ limit: the smaller (at, seq)
// of the lane head and the heap top. It reports false when nothing fires
// at or before the limit, leaving the queue untouched.
func (c *Clock) next(limit int64) (h uint32, at int64, ok bool) {
	var best *entry
	if !c.lane.empty() {
		best = &c.lane.q[c.lane.head]
	}
	fromHeap := len(c.heap) > 0 && (best == nil || c.heap[0].before(best))
	if fromHeap {
		best = &c.heap[0]
	}
	if best == nil || best.at > limit {
		return 0, 0, false
	}
	h, at = best.h, best.at
	if fromHeap {
		c.heapRemove(0)
	} else {
		c.lane.head++
		c.lane.skipDead()
	}
	return h, at, true
}

// Fork returns a new clock positioned at the same virtual instant, with
// the same insertion-order counter, event budget, and fired count — and an
// empty event queue. Pending events stay with the parent: forking is only
// meaningful at quiescence (between replays), when nothing is scheduled;
// a fork taken mid-replay would silently drop the in-flight events, so
// callers that cannot guarantee quiescence must drain the queue first.
//
// Copying seq keeps the fork's timestamp tie-breaking behaviour aligned
// with a hypothetical serial continuation of the parent, which is part of
// why forked evaluation reproduces serial results byte-for-byte.
//
// Callback registries are NOT carried over: subsystems holding FnIDs
// register afresh against the fork.
func (c *Clock) Fork() *Clock {
	nc := New()
	nc.now, nc.seq, nc.Budget, nc.fired = c.now, c.seq, c.Budget, c.fired
	return nc
}

// Pending reports the number of live events in the queue. The count is
// maintained on schedule/Stop/fire, so this is O(1) — replay quiescence
// polling leans on it.
func (c *Clock) Pending() int { return c.live }

// step fires the earliest event with at ≤ limit. It reports false when no
// such event exists.
func (c *Clock) step(limit int64) (bool, error) {
	h, at, ok := c.next(limit)
	if !ok {
		return false, nil
	}
	c.now = at
	c.fired++
	if c.Budget > 0 && c.fired > c.Budget {
		return false, fmt.Errorf("vclock: event budget %d exhausted at %v", c.Budget, c.Now())
	}
	if c.traced {
		c.rec.Add(obs.CtrVClockFired, 1)
	}
	r := &c.slab[h]
	kind, fnSlot, arg := r.kind, r.fn, r.arg
	c.live--
	c.recycleHandle(h)
	switch kind {
	case kindIdx:
		c.regFns[fnSlot](arg)
	case kindPair:
		p := c.pairs[fnSlot]
		c.pairs[fnSlot] = argPair{}
		c.pairFree = append(c.pairFree, fnSlot)
		p.fn(p.arg)
	default:
		fn := c.closures[fnSlot]
		c.closures[fnSlot] = nil
		c.closFree = append(c.closFree, fnSlot)
		fn()
	}
	return true, nil
}

// Step fires the single earliest pending event, advancing virtual time to
// it. It reports false when the queue is empty. Run is Step in a loop;
// the scheduler benchmarks and differential tests drive Step directly.
func (c *Clock) Step() (bool, error) { return c.step(math.MaxInt64) }

// Run drains the event queue until it is empty, advancing virtual time as
// it goes. Events scheduled by running events are processed too.
func (c *Clock) Run() error {
	for {
		ok, err := c.step(math.MaxInt64)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RunUntil drains events whose timestamp is at or before deadline, then
// advances the clock to deadline. Events beyond the deadline stay queued.
func (c *Clock) RunUntil(deadline time.Time) error {
	deadNS := int64(deadline.Sub(Epoch))
	for {
		ok, err := c.step(deadNS)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if c.now < deadNS {
		c.now = deadNS
	}
	return nil
}

// RunFor is RunUntil(Now()+d).
func (c *Clock) RunFor(d time.Duration) error {
	return c.RunUntil(c.Now().Add(d))
}

// Sleep advances virtual time by d, firing any events that fall inside the
// interval. It is the simulation analogue of time.Sleep for code that is
// driving the clock from outside an event callback.
func (c *Clock) Sleep(d time.Duration) error { return c.RunFor(d) }

// HourOfDay returns the current virtual hour in [0,24), used by
// load-dependent middlebox models (GFC state flushing, Figure 4).
func (c *Clock) HourOfDay() float64 {
	h := time.Duration(c.now).Hours()
	h = h - float64(int(h/24))*24
	if h < 0 {
		h += 24
	}
	return h
}
