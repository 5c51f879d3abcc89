package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minRuns is the fewest untraced runs per side and workload that
// -compare accepts.
const minRuns = 5

// significance is the Mann–Whitney p-value below which a difference in
// medians counts as real.
const significance = 0.05

// loadRuns reads every untraced run record in dir, grouped by workload.
func loadRuns(dir string) (map[string][]runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runRecord{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, nil
}

// comparison is one metric's change from base runs to change runs.
type comparison struct {
	Verdict string
	// Worse is the change's median relative to the base median, signed
	// so that positive is worse.
	Worse float64
	// Spread is the wider of the two sides' IQR as a share of its median.
	Spread float64
	U, P   float64 // Mann–Whitney U of base against change, and its p-value
}

// compareMetric judges one metric. Its bound widens to the metric's
// floor where the floor is the larger share of the base median.
func compareMetric(d metricDef, base, change []float64) comparison {
	b, c := summarize(base), summarize(change)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	floor := floors[d.Name]
	bound := math.Max(d.Bound, floor/math.Abs(b.Median))
	r := comparison{
		Worse:  sign * (c.Median - b.Median) / math.Abs(b.Median),
		Spread: math.Max(b.relIQR(), c.relIQR()),
	}
	r.U, r.P = mannWhitney(base, change)
	// Every change run better than every base run.
	allBetter := (sign > 0 && c.Max < b.Min) || (sign < 0 && c.Min > b.Max)
	switch {
	case math.Abs(c.Median-b.Median) < floor:
		r.Verdict = "unchanged"
	case allBetter:
		r.Verdict = "improved"
	case r.Spread > bound:
		r.Verdict = "unresolved"
	case r.Worse > bound:
		r.Verdict = "regressed"
	case r.P < significance && -r.Worse > b.relIQR():
		r.Verdict = "improved"
	default:
		r.Verdict = "unchanged"
	}
	return r
}

// compareDirs prints, per workload and end-to-end metric, both sides'
// median, quartiles and run count, the Mann–Whitney U test, and the
// verdict. It reports whether any metric regressed.
func compareDirs(baseDir, changeDir string, w io.Writer) (bool, error) {
	base, err := loadRuns(baseDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range base {
		if len(change[name]) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", baseDir, changeDir)
	}
	sort.Strings(names)
	regressed := false
	for _, name := range names {
		b, c := base[name], change[name]
		if len(b) < minRuns || len(c) < minRuns {
			return false, fmt.Errorf("%s: %d base and %d change runs; -compare needs at least %d each",
				name, len(b), len(c), minRuns)
		}
		fmt.Fprintf(w, "%s (%d base runs, %d change runs)\n", name, len(b), len(c))
		fmt.Fprintf(w, "  %-12s %-30s %-30s %8s %7s %7s %7s  %s\n",
			"metric", "base q1/median/q3", "change q1/median/q3", "worse", "spread", "U", "p", "verdict")
		for _, d := range endToEnd {
			bv, cv := values(b, d.Name), values(c, d.Name)
			if len(bv) < minRuns || len(cv) < minRuns {
				return false, fmt.Errorf("%s: metric %s missing from some runs", name, d.Name)
			}
			r := compareMetric(d, bv, cv)
			limit := fmt.Sprintf("bound %.0f%%", 100*d.Bound)
			if f := floors[d.Name]; f > 0 {
				limit += fmt.Sprintf(", floor %g %s", f, d.Unit)
			}
			fmt.Fprintf(w, "  %-12s %-30s %-30s %+7.2f%% %6.2f%% %7.1f %7.3f  %s (%s)\n",
				d.Name, triple(summarize(bv)), triple(summarize(cv)), 100*r.Worse, 100*r.Spread, r.U, r.P, r.Verdict, limit)
			regressed = regressed || r.Verdict == "regressed"
		}
	}
	return regressed, nil
}

// values extracts one metric from every run.
func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func triple(s summary) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", s.Q1, s.Median, s.Q3)
}
