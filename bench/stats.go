package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the "exclusive" method of
// Python's statistics.quantiles: position p·(n+1), linear interpolation
// between neighbours, clamped to the inner pair at the ends (so it
// extrapolates linearly below the first and above the last rank). Every
// percentile and spread the benchmark reports uses this definition, so
// they match statistics.quantiles(values, n=4) applied to its output.
// xs must be sorted and non-empty.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	return xs[j-1] + (xs[j]-xs[j-1])*frac
}

// summary is a distribution reduced to the numbers the benchmark
// reports.
type summary struct {
	N                             int
	Min, Q1, Median, Q3, P95, Max float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		P95:    quantile(s, 0.95),
		Max:    s[len(s)-1],
	}
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return summarize(xs).Median }

// relIQR is the distance between the quartiles as a share of the
// median: the run-to-run spread the bounds are judged against.
func (s summary) relIQR() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// mannWhitney returns the Mann–Whitney U statistic of a against b and
// its exact two-sided p-value. Ties get midranks, and the null
// distribution of the rank sum is enumerated conditional on those
// midranks, so the p-value stays exact with ties and at the small
// sample sizes a benchmark comparison has. U counts the pairs (x in a,
// y in b) with x > y, ties counting one half.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Doubled midranks are integers, which keeps the enumeration exact.
	rank2 := make([]int, len(all))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		// Ranks i+1..j share the midrank (i+1+j)/2.
		for k := i; k < j; k++ {
			rank2[k] = i + 1 + j
		}
		i = j
	}
	obsSum2 := 0
	for i, o := range all {
		if o.fromA {
			obsSum2 += rank2[i]
		}
	}
	u = float64(obsSum2)/2 - float64(n1*(n1+1))/2

	// ways[k][s]: number of k-subsets of the observations whose doubled
	// rank sum is s.
	maxSum := 0
	for _, r := range rank2 {
		maxSum += r
	}
	ways := make([][]float64, n1+1)
	for k := range ways {
		ways[k] = make([]float64, maxSum+1)
	}
	ways[0][0] = 1
	for _, r := range rank2 {
		for k := n1; k >= 1; k-- {
			for s := maxSum; s >= r; s-- {
				ways[k][s] += ways[k-1][s-r]
			}
		}
	}
	// Under the null every n1-subset is equally likely; the mean doubled
	// rank sum is n1·(N+1).
	mean2 := n1 * (n1 + n2 + 1)
	dev := obsSum2 - mean2
	if dev < 0 {
		dev = -dev
	}
	var extreme, total float64
	for s, w := range ways[n1] {
		if w == 0 {
			continue
		}
		total += w
		d := s - mean2
		if d < 0 {
			d = -d
		}
		if d >= dev {
			extreme += w
		}
	}
	return u, extreme / total
}
