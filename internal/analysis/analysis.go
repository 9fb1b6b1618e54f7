// Package analysis computes the paper's validation artifacts from dataset
// views: pairwise overlap matrices (Tables 1 and 3), volume-weighted
// overlap (Table 4), per-AS active-prefix fraction bounds (Figure 4),
// per-country coverage of APNIC user populations (Figure 3), and relative
// activity distributions and differences (Figures 6 and 7).
package analysis

import (
	"math"
	"sort"

	"clientmap/internal/core/datasets"
	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
)

// Matrix is a pairwise intersection matrix over n datasets: Inter[i][j] is
// |D_i ∩ D_j|, and the diagonal holds dataset sizes.
type Matrix struct {
	Names []string
	Inter [][]int
}

// Size returns |D_i|.
func (m *Matrix) Size(i int) int { return m.Inter[i][i] }

// Pct returns the percentage of row dataset i also observed in column
// dataset j — the parenthesized numbers of Tables 1 and 3.
func (m *Matrix) Pct(i, j int) float64 {
	if m.Inter[i][i] == 0 {
		return 0
	}
	return 100 * float64(m.Inter[i][j]) / float64(m.Inter[i][i])
}

// ASOverlapMatrix computes Table 3's shape over AS datasets.
func ASOverlapMatrix(ds []*datasets.ASDataset) *Matrix {
	m := &Matrix{Inter: make([][]int, len(ds))}
	for i, d := range ds {
		m.Names = append(m.Names, d.Name)
		m.Inter[i] = make([]int, len(ds))
		for j, e := range ds {
			if i == j {
				m.Inter[i][j] = d.Len()
			} else {
				m.Inter[i][j] = d.IntersectCount(e)
			}
		}
	}
	return m
}

// PrefixOverlapMatrix computes Table 1's shape over /24 datasets.
func PrefixOverlapMatrix(ds []*datasets.PrefixDataset) *Matrix {
	m := &Matrix{Inter: make([][]int, len(ds))}
	for i, d := range ds {
		m.Names = append(m.Names, d.Name)
		m.Inter[i] = make([]int, len(ds))
		for j, e := range ds {
			if i == j {
				m.Inter[i][j] = d.Len()
			} else {
				m.Inter[i][j] = d.Set.IntersectCount(e.Set)
			}
		}
	}
	return m
}

// VolumeMatrix holds Table 4's shape: Pct[r][c] is the percent of row
// dataset r's activity volume in ASes also present in column dataset c.
type VolumeMatrix struct {
	RowNames, ColNames []string
	Pct                [][]float64
}

// VolumeOverlap computes the volume-weighted overlap of each row dataset
// against each column dataset.
func VolumeOverlap(rows, cols []*datasets.ASDataset) *VolumeMatrix {
	m := &VolumeMatrix{Pct: make([][]float64, len(rows))}
	for _, r := range rows {
		m.RowNames = append(m.RowNames, r.Name)
	}
	for _, c := range cols {
		m.ColNames = append(m.ColNames, c.Name)
	}
	for i, r := range rows {
		m.Pct[i] = make([]float64, len(cols))
		total := r.TotalVolume()
		for j, c := range cols {
			if total <= 0 {
				continue
			}
			m.Pct[i][j] = 100 * r.VolumeIn(c) / total
		}
	}
	return m
}

// CDF is an empirical distribution.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.xs) }

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	idx := int(q * float64(len(c.xs)))
	if idx >= len(c.xs) {
		idx = len(c.xs) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return c.xs[idx]
}

// FractionBelow returns P(X <= x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	n := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.xs))
}

// Points returns n evenly spaced (x, cumulative fraction) pairs for
// plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.xs) - 1) / max(n-1, 1)
		out = append(out, [2]float64{c.xs[idx], float64(idx+1) / float64(len(c.xs))})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ASBounds holds Figure 4's per-AS active-prefix fraction bounds.
type ASBounds struct {
	ASN          uint32
	Announced24s int
	// LowerActive is the minimum consistent activity: one /24 per
	// non-overlapping hit prefix in the AS.
	LowerActive int
	// UpperActive assumes every /24 under a hit prefix is active.
	UpperActive int
}

// LowerFrac returns the lower-bound active fraction.
func (b ASBounds) LowerFrac() float64 {
	if b.Announced24s == 0 {
		return 0
	}
	return float64(b.LowerActive) / float64(b.Announced24s)
}

// UpperFrac returns the upper-bound active fraction (capped at 1; scope
// expansion can cover more space than the AS announces).
func (b ASBounds) UpperFrac() float64 {
	if b.Announced24s == 0 {
		return 0
	}
	f := float64(b.UpperActive) / float64(b.Announced24s)
	if f > 1 {
		f = 1
	}
	return f
}

// ASActiveFractions computes Figure 4: for every announced AS, the lower
// and upper bounds on the fraction of its /24s that cache probing detected
// as active.
func ASActiveFractions(hitScopes []netx.Prefix, rv *routeviews.Table) []ASBounds {
	lower := make(map[uint32]int)
	upper := make(map[uint32]int)

	// Lower bound: deduplicate nested hit prefixes, then one /24 each.
	var trie netx.Trie[bool]
	for _, p := range hitScopes {
		trie.Insert(p, true)
	}
	trie.Walk(func(p netx.Prefix, _ bool) bool {
		for bits := p.Bits() - 1; bits >= 0; bits-- {
			if _, ok := trie.Get(netx.PrefixFrom(p.Addr(), bits)); ok {
				return true // nested under a broader hit
			}
		}
		if asn, ok := rv.ASNOfPrefix(p); ok {
			lower[asn]++
		} else if asn, ok := rv.ASNOf(p.Addr()); ok {
			lower[asn]++
		}
		return true
	})

	// Upper bound: every covered /24, attributed by longest prefix match.
	var upperSet netx.Set24
	for _, p := range hitScopes {
		upperSet.AddPrefix(p)
	}
	upperSet.Range(func(s netx.Slash24) bool {
		if asn, ok := rv.ASNOf(s.Addr()); ok {
			upper[asn]++
		}
		return true
	})

	var out []ASBounds
	for _, asn := range rv.ASNs() {
		b := ASBounds{
			ASN:          asn,
			Announced24s: rv.Announced24s(asn),
			LowerActive:  lower[asn],
			UpperActive:  upper[asn],
		}
		out = append(out, b)
	}
	return out
}

// CountryCoverage holds one country's Figure 3 data point.
type CountryCoverage struct {
	Country string
	// UsersM is the country's Internet users per APNIC (the x axis).
	Users float64
	// CoveredFrac is the fraction of those users in ASes where cache
	// probing detected activity (the y axis).
	CoveredFrac float64
}

// CountryCoverageByAS computes Figure 3: per country, the fraction of
// APNIC-estimated users in ASes the technique detected. Users are summed
// in ascending ASN order: float addition is not associative, so summing
// in map order would move a total's low bits from run to run.
func CountryCoverageByAS(apnicUsers map[uint32]float64, asCountry map[uint32]string, detected func(uint32) bool) []CountryCoverage {
	asns := make([]uint32, 0, len(apnicUsers))
	for asn := range apnicUsers {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	covered := make(map[string]float64)
	total := make(map[string]float64)
	for _, asn := range asns {
		users := apnicUsers[asn]
		c := asCountry[asn]
		if c == "" {
			continue
		}
		total[c] += users
		if detected(asn) {
			covered[c] += users
		}
	}
	var out []CountryCoverage
	for c, t := range total {
		if t <= 0 {
			continue
		}
		out = append(out, CountryCoverage{Country: c, Users: t, CoveredFrac: covered[c] / t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// RelativeVolumeCDF returns Figure 6's per-method distribution: the CDF of
// per-AS relative volume.
func RelativeVolumeCDF(d *datasets.ASDataset) *CDF {
	rel := d.RelativeVolumes()
	xs := make([]float64, 0, len(rel))
	for _, v := range rel {
		xs = append(xs, v)
	}
	return NewCDF(xs)
}

// PairwiseVolumeDiffs returns Figure 7's samples: for every AS in either
// dataset, the difference in relative volume (a - b).
func PairwiseVolumeDiffs(a, b *datasets.ASDataset) []float64 {
	ra, rb := a.RelativeVolumes(), b.RelativeVolumes()
	union := make(map[uint32]bool, len(ra)+len(rb))
	for asn := range ra {
		union[asn] = true
	}
	for asn := range rb {
		union[asn] = true
	}
	out := make([]float64, 0, len(union))
	for asn := range union {
		out = append(out, ra[asn]-rb[asn])
	}
	sort.Float64s(out)
	return out
}
