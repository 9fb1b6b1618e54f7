package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {20, 1}, {21, 2}, {50, 3}, {60, 3}, {61, 4}, {99, 5}, {100, 5},
	} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%v of 1..5 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := newDist([]float64{7, 1, 2, 9}).median(); got != 2 {
		t.Errorf("median of an even count is the lower middle by nearest rank, got %v", got)
	}
	if got := dist(nil).pct(50); got != 0 {
		t.Errorf("empty set reads %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{99, 50, 50},        // fewer than 100 samples: no tail beyond the median
		{100, 90, 90},       // p90 leaves exactly 10 beyond
		{999, 90, 900},      // p99 would leave 9.99
		{1000, 99, 990},     // p99 leaves 10
		{10000, 99.9, 9990}, // p99.9 leaves 10
	} {
		p, v := mk(c.n).tail()
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, p, v, c.wantP, c.wantV)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	for _, c := range []struct {
		name string
		kids []interval
		want int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping count once", []interval{iv(10, 40), iv(20, 60)}, 50},
		{"nested counts once", []interval{iv(10, 60), iv(20, 30)}, 50},
		{"clipped to parent", []interval{iv(-50, 10), iv(90, 200)}, 80},
		{"outside parent", []interval{iv(150, 200)}, 100},
		{"touching merge", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"covers all", []interval{iv(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self = %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	us := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Microsecond
		}
		return out
	}
	due := us(0, 250, 500, 750, 1000)
	sent := us(0, 200, 600, 2750, 1010) // on time, early, 100µs, 2ms, 10µs late
	l := lateStats(due, sent)
	if l.N != 5 || l.Behind != 1 {
		t.Fatalf("n=%d behind=%d, want 5 and 1", l.N, l.Behind)
	}
	if l.P50 != 10*time.Microsecond {
		t.Errorf("p50 late = %v, want 10µs (early sends count as on time)", l.P50)
	}
	if l.Max != 2*time.Millisecond || l.TailP != 50 {
		t.Errorf("max = %v tail p%v, want 2ms and a median fallback for 5 samples", l.Max, l.TailP)
	}
}

func TestPerOpTakesTheCheapestRunOfEachStep(t *testing.T) {
	walls := [][]float64{{1, 2, 3, 4}, {2, 1, 3}}
	probes := [][]int64{{1e6, 1e6, 0, 2e6}, {1e6, 1e6, 0}}
	got := perOp(walls, probes)
	// Step 2 sent no probes; step 3 ran once.
	want := dist{1, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("perOp = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perOp = %v, want %v µs per probe", got, want)
		}
	}
}
