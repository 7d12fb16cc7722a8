package main

import (
	"math"
	"testing"
)

// A walk table is one cycle through every slot, so a walk never settles
// into a short loop that stays in a cache.
func TestWalkIsOneCycle(t *testing.T) {
	const n = 1 << 12
	w := newWalk(n, 3)
	seen := make([]bool, n)
	p := uint32(0)
	for i := 0; i < n; i++ {
		if seen[p] {
			t.Fatalf("slot %d visited twice after %d steps", p, i)
		}
		seen[p] = true
		p = w.next[p]
	}
	if p != 0 {
		t.Errorf("walk of %d steps ended at %d, want back at 0", n, p)
	}
}

func TestSlowdownIsPositive(t *testing.T) {
	if s := slowdown(); !(s > 0) || math.IsInf(s, 1) {
		t.Errorf("slowdown() = %g", s)
	}
}

// Each segment's timings are divided by its own slowdown before the
// median is taken, so a segment that ran twice as slow on a host twice as
// slow reads like the others.
func TestMetricsScaleEachSegment(t *testing.T) {
	seg := func(perOp, p50, slow float64) segment {
		ops := make(samples, 21)
		for i := range ops {
			ops[i] = p50 * float64(i+1) / 11 // median: ops[10] = p50
		}
		return segment{cpuPerOpMS: perOp, opCPUMS: ops, slowdown: slow}
	}
	m := &measurement{segs: []segment{seg(10, 4, 1), seg(20, 8, 2), seg(13, 5, 1), seg(30, 3, 1)}}
	out := metrics{}
	if err := m.metrics(out); err != nil {
		t.Fatal(err)
	}
	// Scaled per-op figures 10, 10, 13, 30: median 11.5; p50s 4, 4, 5, 3:
	// median 4.
	if got := out["cpu_ms_per_op"].Value; math.Abs(got-11.5) > 1e-9 {
		t.Errorf("cpu_ms_per_op = %g, want 11.5", got)
	}
	if got := out["op_cpu_ms_p50"].Value; math.Abs(got-4) > 1e-9 {
		t.Errorf("op_cpu_ms_p50 = %g, want 4", got)
	}
	// An even count takes the mean of the two middle operations.
	m.segs[3].opCPUMS = samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if err := m.metrics(out); err != nil {
		t.Fatal(err)
	}
	if got := out["op_cpu_ms_p50"].Value; math.Abs(got-4.5) > 1e-9 {
		t.Errorf("op_cpu_ms_p50 = %g, want 4.5, the median of 4, 4, 5 and 10.5", got)
	}
	// A segment too small for a supported median fails the run.
	m.segs = append(m.segs, segment{cpuPerOpMS: 1, opCPUMS: make(samples, 19), slowdown: 1})
	if err := m.metrics(metrics{}); err == nil {
		t.Error("a 19-operation segment: want an error")
	}
}
