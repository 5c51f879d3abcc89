package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are those of Python's
// statistics.quantiles(xs, n=4) (method "exclusive"), worked by hand.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		wantN      int
		wantMinMax [2]float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 4, [2]float64{1, 4}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25, 10, [2]float64{1, 10}},
		// Two points: the quartile positions fall outside the data, and
		// the method extrapolates from the inner pair.
		{[]float64{10, 20}, 7.5, 15, 22.5, 2, [2]float64{10, 20}},
		{[]float64{42}, 42, 42, 42, 1, [2]float64{42, 42}},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.m) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) quartiles = %v/%v/%v, want %v/%v/%v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
		if s.N != c.wantN {
			t.Errorf("summarize(%v).N = %d, want %d", c.xs, s.N, c.wantN)
		}
		if s.Min != c.wantMinMax[0] || s.Max != c.wantMinMax[1] {
			t.Errorf("summarize(%v) min/max = %v/%v, want %v", c.xs, s.Min, s.Max, c.wantMinMax)
		}
		if len(c.xs) == 4 && !near(s.P95, 4.75) {
			t.Errorf("p95 of 1..4 = %v, want 4.75 (extrapolated)", s.P95)
		}
	}
	// p95 of 1..20: position 0.95·21 = 19.95.
	var xs []float64
	for i := 1; i <= 20; i++ {
		xs = append(xs, float64(i))
	}
	if s := summarize(xs); !near(s.P95, 19.95) || s.N != 20 {
		t.Errorf("p95 of 1..20 = %v (n=%d), want 19.95 (n=20)", s.P95, s.N)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestRelIQR(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got, want := s.relIQR(), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
}

// The p-values are exact: the share of all equally likely splits of
// the pooled (mid)ranks whose rank sum lies at least as far from its
// mean as the observed one, counted by hand.
func TestMannWhitneyHandComputed(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		u, p float64
	}{
		// Complete separation: 2 of the C(6,3) = 20 splits are as extreme.
		{"separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		{"separated reversed", []float64{4, 5, 6}, []float64{1, 2, 3}, 9, 0.1},
		// Midranks {1, 3, 3, 3, 5, 6}; a's rank sum is 7 against a mean of
		// 10.5, and 6 of the 20 splits sum to ≤ 7 or ≥ 14.
		{"ties", []float64{1, 2, 2}, []float64{2, 3, 4}, 1, 0.3},
		// All tied: every split has the same rank sum.
		{"all tied", []float64{1, 1, 1}, []float64{1, 1, 1}, 4.5, 1},
		// Ranks {1, 2, 3}, a = {1, 2}: sums 3, 4, 5 around 4; two of three
		// are as extreme.
		{"unequal sizes", []float64{1, 2}, []float64{3}, 0, 2.0 / 3},
	}
	for _, c := range cases {
		u, p := mannWhitney(c.a, c.b)
		if !near(u, c.u) || !near(p, c.p) {
			t.Errorf("%s: mannWhitney = U %v p %v, want U %v p %v", c.name, u, p, c.u, c.p)
		}
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{"ops_per_s", "1/s", "higher", 0.07}
	lat := metricDef{"op_p50_ms", "ms", "lower", 0.07}
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2}
	cases := []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"same", ops, []float64{100.1, 99.8, 100.3, 99.9, 100.6, 99.4}, "unchanged"},
		{"throughput drop beyond bound", ops, []float64{90, 91, 89, 90.5, 89.5, 90.2}, "regressed"},
		{"throughput gain", ops, []float64{110, 111, 109, 110.5, 109.5, 110.2}, "improved"},
		{"latency rise beyond bound", lat, []float64{110, 111, 109, 110.5, 109.5, 110.2}, "regressed"},
		{"noisy change", ops, []float64{80, 120, 95, 105, 70, 130}, "unresolved"},
		// Wider than the bound, but every change run beats every base run.
		{"noisy but all better", ops, []float64{102, 140, 110, 150, 105, 160}, "improved"},
	}
	for _, c := range cases {
		if got := compareMetric(c.d, base, c.change).Verdict; got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestVerdictSetupFloor checks that set-up time changes under the 20 ms
// floor count as unchanged however large a share of the median they
// are, and that larger ones are still judged against the bound.
func TestVerdictSetupFloor(t *testing.T) {
	setup := metricDef{"setup_s", "s", "lower", 0.25}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	// Sub-millisecond set-ups with a 40% spread, 60% slower.
	base := []float64{0.0005, 0.0006, 0.0004, 0.0007, 0.0005, 0.0006}
	if got := compareMetric(setup, base, scale(base, 1.6)).Verdict; got != "unchanged" {
		t.Errorf("sub-ms set-up: verdict %s, want unchanged", got)
	}
	// 50 ms set-ups, 30% (15 ms) slower: under the floor.
	base = []float64{0.050, 0.051, 0.049, 0.0505, 0.0495, 0.0502}
	if got := compareMetric(setup, base, scale(base, 1.3)).Verdict; got != "unchanged" {
		t.Errorf("15 ms slower: verdict %s, want unchanged", got)
	}
	// One-second set-ups, 30% (300 ms) slower: beyond floor and bound.
	base = scale(base, 20)
	if got := compareMetric(setup, base, scale(base, 1.3)).Verdict; got != "regressed" {
		t.Errorf("300 ms slower: verdict %s, want regressed", got)
	}
}
