package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// The percentile helper must refuse a percentile with fewer than ten
// samples beyond it, and accept it with exactly ten.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{19, 0.50, 0}, {20, 0.50, 10},
		{99, 0.90, 0}, {100, 0.90, 90},
		{999, 0.99, 0}, {1000, 0.99, 990},
		{0, 0.50, 0},
	} {
		got, err := percentile(ramp(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal", c.p*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	if v, pct := tailPercentile(ramp(2000)); v != 1980 || pct != 99 {
		t.Errorf("tail of 2000 = %v at p%v, want 1980 at p99", v, pct)
	}
	// 500 samples support p98 at most: ten beyond the 490th.
	if v, pct := tailPercentile(ramp(500)); v != 490 || pct != 98 {
		t.Errorf("tail of 500 = %v at p%v, want 490 at p98", v, pct)
	}
	if v, pct := tailPercentile(ramp(10)); v != 0 || pct != 0 {
		t.Errorf("tail of 10 = %v at p%v, want none", v, pct)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which the driver uses: for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got := quartileSpread(ramp(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) = [10.5, 12.0, 16.5]
	if got := quartileSpread([]float64{20, 10, 12, 11, 13}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spread = %v, want (16.5-10.5)/12 = 0.5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
