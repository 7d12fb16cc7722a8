package main

import "testing"

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},   // the median of 10 has only 4 samples beyond it
		{20, 50},  // 10 beyond the median
		{99, 50},  // p90 of 99 has only 9 beyond it
		{100, 90}, // p90 of 100 is rank 90: exactly 10 beyond
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := make(samples, 200)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	got, err := s.percentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond)", got)
	}
	if _, err := s[:199].percentile(95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := s.percentile(99); err == nil {
		t.Error("p99 of 200 samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
