package main

import (
	"errors"
	"fmt"
	rtm "runtime/metrics"
	"syscall"
	"time"
)

// measurement is what one timed run of a workload observed.
type measurement struct {
	attempted int
	failed    int
	// problems describes every failure and outcome mismatch.
	problems []string
	// segs are the measured segments, in the order they ran. All of them
	// hold the same operations in another order.
	segs []segment
	eng  engStats
	// answers is set by the daemon workload only.
	answers *answerStats
}

func newMeasurement() *measurement { return &measurement{} }

func (m *measurement) fail(msg string) {
	m.failed++
	m.problems = append(m.problems, msg)
}

// absorb adds o's attempts, failures and problems to m.
func (m *measurement) absorb(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
}

// segment is one measured stretch of a run: a sweep's pass, a daemon's
// group of rounds.
type segment struct {
	// cpuPerOpMS is the segment's process CPU time over its operations.
	cpuPerOpMS float64
	// opCPUMS is the CPU time of each operation in it: a sweep's
	// engagement, a daemon's warm answer.
	opCPUMS samples
	// slowdown is the host's slowdown through the segment: the median of
	// the probes taken from its start to its end (see speed.go).
	slowdown float64
}

// engStats accumulates engagement figures.
type engStats struct {
	// wallMS is the wall time of each measured engagement.
	wallMS samples
	// The cost set: engagements whose rounds and bytes are deterministic
	// for the seed (a sweep's warm-up pass, every daemon engagement).
	costN      int
	costRounds int64
	costBytes  int64
}

func (s *engStats) addCost(o outcome) {
	s.costN++
	s.costRounds += int64(o.Rounds)
	s.costBytes += o.Bytes
}

// metrics renders the end-to-end timing and cost metrics of a run. Each
// timing is taken per segment and divided by the host's slowdown around
// that segment (see speed.go); the run reports the median over segments.
func (m *measurement) metrics(out metrics) error {
	if len(m.segs) == 0 {
		return errors.New("no measured segment")
	}
	var p50s []float64
	for i, s := range m.segs {
		if _, err := s.opCPUMS.percentile(50); err != nil {
			return fmt.Errorf("op_cpu_ms_p50 of segment %d: %w", i+1, err)
		}
		// The mean of the two middle operations when their number is even:
		// a sweep's pass holds each cell once, and the nearest rank would
		// flip between two cells' costs from one segment to the next.
		p50s = append(p50s, median(s.opCPUMS)/s.slowdown)
	}
	out.set("cpu_ms_per_op", m.cpuPerOp(), "ms")
	out.set("op_cpu_ms_p50", median(p50s), "ms")
	out.set("rounds_per_eng", frac(float64(m.eng.costRounds), float64(m.eng.costN)), "count")
	out.set("replay_mb_per_eng", frac(float64(m.eng.costBytes), float64(m.eng.costN))/1e6, "MB")
	return nil
}

// cpuPerOp is the median over segments of the CPU time per operation at
// the quiet host's speed.
func (m *measurement) cpuPerOp() float64 {
	var v []float64
	for _, s := range m.segs {
		v = append(v, s.cpuPerOpMS/s.slowdown)
	}
	return median(v)
}

// opCPU pools every segment's operation CPU times.
func (m *measurement) opCPU() samples {
	var out samples
	for _, s := range m.segs {
		out = append(out, s.opCPUMS...)
	}
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]rtm.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	rtm.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case rtm.KindUint64:
			return float64(ss[i].Value.Uint64())
		case rtm.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// runtimeMetrics reports the Go runtime layer between two snapshots, per
// measured operation.
func runtimeMetrics(before, after runtimeSample, ops int, out metrics) {
	n := float64(ops)
	out.set("go.allocs_per_op", frac(after.allocs-before.allocs, n), "count")
	out.set("go.alloc_mb_per_op", frac(after.allocBytes-before.allocBytes, n)/1e6, "MB")
	out.set("go.gc_cpu_frac", frac(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac")
}
