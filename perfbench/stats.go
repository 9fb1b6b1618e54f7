package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sorted sample set. Every percentile the benchmark reports is
// nearest-rank over one of these, and every report states its count.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func durDist(ds []time.Duration, unit time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return newDist(xs)
}

// pct is the nearest-rank p-th percentile (0 < p ≤ 100): the smallest
// sample with at least p% of the samples at or below it. An empty set
// has no percentile; it reads 0.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	// The epsilon keeps float error in p/100·n from bumping an exact
	// rank (99.9% of 10000) to the next sample.
	rank := int(math.Ceil(p/100*float64(len(d)) - 1e-9))
	return d[min(max(rank, 1), len(d))-1]
}

func (d dist) median() float64 { return d.pct(50) }

// tail is the highest of p99.9, p99, p90 that has at least ten samples
// beyond it, so a reported tail is never one or two outliers; with fewer
// than 100 samples it falls back to the median.
func (d dist) tail() (p, v float64) {
	for _, permille := range []int{999, 990, 900} {
		if len(d)*(1000-permille) >= 10*1000 {
			p := float64(permille) / 10
			return p, d.pct(p)
		}
	}
	return 50, d.median()
}

// perOp is, for each step (probing pass or stream hour) that sent
// probes, its wall time per probe in µs; given several runs of the same
// steps, the cheapest run of each step, since the host only ever slows a
// run down.
func perOp(walls [][]float64, probes [][]int64) dist {
	var xs []float64
	for k := 0; ; k++ {
		best, seen := math.Inf(1), false
		for r := range walls {
			if k < len(walls[r]) && k < len(probes[r]) {
				seen = true
				if probes[r][k] > 0 {
					best = min(best, walls[r][k]*1e6/float64(probes[r][k]))
				}
			}
		}
		if !seen {
			return newDist(xs)
		}
		if !math.IsInf(best, 1) {
			xs = append(xs, best)
		}
	}
}

// interval is a half-open time range [Start, End).
type interval struct{ Start, End time.Time }

// selfTime is parent's duration minus the part of it that the children
// cover. Children are clipped to the parent, and overlapping children —
// concurrent calls under one parent — count their union once.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return parent.End.Sub(parent.Start) - covered
}

// lateness summarises how far behind its schedule an open-loop
// generator ran: for each query, the time it was actually sent minus the
// time it was due (early sends count as zero).
type lateness struct {
	N             int
	P50, P99, Max time.Duration
	TailP         float64
	Tail          time.Duration
	// Behind counts queries sent more than a millisecond after their due
	// time.
	Behind int
}

func lateStats(due, sent []time.Duration) lateness {
	late := make([]time.Duration, len(due))
	var out lateness
	for i := range due {
		if l := sent[i] - due[i]; l > 0 {
			late[i] = l
			if l > time.Millisecond {
				out.Behind++
			}
		}
	}
	d := durDist(late, time.Nanosecond)
	out.N = len(d)
	out.P50, out.P99 = time.Duration(d.median()), time.Duration(d.pct(99))
	p, t := d.tail()
	out.TailP, out.Tail = p, time.Duration(t)
	if len(d) > 0 {
		out.Max = time.Duration(d[len(d)-1])
	}
	return out
}
