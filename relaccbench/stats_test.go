package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileReportsSampleCount(t *testing.T) {
	p, err := percentileOf(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1000 || p.Value != 990 || p.P != 99 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 over 1000 samples", p)
	}
	p, err = percentileOf(seq(20), 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 20 || p.Value != 10 {
		t.Fatalf("p50 of 1..20 = %+v, want value 10 over 20 samples", p)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{999, 99}, {100, 99}, {19, 50}, {0, 50}} {
		if _, err := percentileOf(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples: want a refusal (fewer than %d beyond)", c.p, c.n, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g", m)
	}
}
