package main

import (
	"testing"
	"time"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok {
			beyond := c.n - 1 - rankIndex(c.n, q)
			if beyond < minBeyond {
				t.Errorf("n=%d: p%s has %d samples beyond it", c.n, pctName(q), beyond)
			}
		}
	}
}

func TestQuantileIsNearestRankOnExactSamples(t *testing.T) {
	var d dist
	for i := 1000; i >= 1; i-- { // unsorted input
		d.add(time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 500, 0.9: 900, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := d.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := (&dist{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
