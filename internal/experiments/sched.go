package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/netem/vclock"
)

// RunSched measures the virtual-clock scheduler in isolation: the
// schedule→fire round trip at several pending-set depths, a row shaped
// like the simulator's own traffic, a cancel-heavy churn pattern, and
// same-instant batch dispatch. The numbers isolate the scheduler from the
// rest of the simulator, so a scheduler regression shows up here before
// it is diluted into the macro replay benchmarks.
//
// All workloads use ScheduleIdx — the pointer-free hot-path form netem's
// batch delivery schedules through — so allocs/op doubles as a guard that
// the scheduler's steady state writes nothing to the heap.
func RunSched() *PerfSnapshot {
	snap := &PerfSnapshot{
		Schema:     "liberate-bench/v2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   vcsRevision(),
	}

	for _, d := range []struct {
		name  string
		depth int
		delay func(int) time.Duration
	}{
		{"sched-depth-16", 16, spreadDelay},
		{"sched-depth-1k", 1 << 10, spreadDelay},
		{"sched-depth-64k", 64 << 10, spreadDelay},
		{"sched-link-delay-100", 100, linkShapedDelay},
	} {
		d := d
		snap.add(d.name, 0, testing.Benchmark(func(b *testing.B) {
			c := vclock.New()
			fn := c.RegisterFn(func(uint32) {})
			for i := 0; i < d.depth; i++ {
				c.ScheduleIdx(d.delay(i), fn, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Steady state: fire the earliest event, replace it.
				if ok, err := c.Step(); err != nil || !ok {
					b.Fatal("empty clock mid-benchmark")
				}
				c.ScheduleIdx(d.delay(i), fn, 0)
			}
		}))
	}

	snap.add("sched-cancel-heavy", 0, testing.Benchmark(func(b *testing.B) {
		c := vclock.New()
		fn := c.RegisterFn(func(uint32) {})
		// A standing population keeps the queue non-trivial while the
		// churn below schedules and immediately cancels.
		for i := 0; i < 1024; i++ {
			c.ScheduleIdx(time.Duration(1+i%50)*time.Millisecond, fn, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := c.ScheduleIdx(time.Duration(1+i%40)*time.Millisecond, fn, 0)
			if !t.Stop() {
				b.Fatal("fresh timer failed to cancel")
			}
		}
	}))

	snap.add("sched-same-instant-64", 0, sameInstantBench())

	return snap
}

// spreadDelay cycles delays through [1ms, 64ms) with a co-prime 977µs
// stride: many distinct delays without a random source.
func spreadDelay(i int) time.Duration {
	return time.Millisecond + time.Duration(i*977%63000)*time.Microsecond
}

// linkShapedDelay sends nine schedules in ten at netem's default 1 ms
// LinkDelay, the share the end-to-end workloads measure, and spreads the
// rest.
func linkShapedDelay(i int) time.Duration {
	if i%10 == 9 {
		return spreadDelay(i)
	}
	return time.Millisecond
}

func sameInstantBench() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		c := vclock.New()
		fn := c.RegisterFn(func(uint32) {})
		b.ReportAllocs()
		b.ResetTimer()
		// One op = schedule a 64-event same-instant batch, then drain it.
		// All 64 events share one delay, so they queue FIFO in one lane.
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				c.ScheduleIdx(time.Millisecond, fn, uint32(j))
			}
			for c.Pending() > 0 {
				if _, err := c.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// MeasureSchedulerAllocs returns the steady-state allocations per
// schedule→fire round trip on a warmed clock at depth 1k. CI gates on it
// being exactly zero: every event record lives in the clock's index-
// addressed slab, so a single heap allocation per op means a pointer
// snuck back into the hot path.
func MeasureSchedulerAllocs() int64 {
	r := testing.Benchmark(func(b *testing.B) {
		c := vclock.New()
		fn := c.RegisterFn(func(uint32) {})
		// Warm up so slab, lane and heap growth is done before
		// measurement starts.
		for i := 0; i < 1<<10; i++ {
			c.ScheduleIdx(spreadDelay(i), fn, 0)
		}
		for i := 0; i < 1<<12; i++ {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatal("empty clock during warmup")
			}
			c.ScheduleIdx(spreadDelay(i), fn, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatal("empty clock mid-benchmark")
			}
			c.ScheduleIdx(spreadDelay(i), fn, 0)
		}
	})
	return r.AllocsPerOp()
}
