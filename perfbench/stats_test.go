package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n         int
		pct, want float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{199, 90, 180},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{5, 50, 3}, // too few samples for any tail: the median
	}
	for _, c := range cases {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, pct, v, c.pct, c.want)
		}
		if beyond := c.n - int(v); c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
		}
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := percentile(s, 500); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{1.02, 1.02, 1.02}); math.Abs(got-1.02) > 1e-12 {
		t.Errorf("geomean of equal values = %g", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %g, want 0", got)
	}
}
