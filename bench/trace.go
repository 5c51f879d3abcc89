package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// reportHostShares writes each layer's share of the traced phase's
// CPU time, and the simulator's host time per simulated cycle.
func reportHostShares(a attribution, traced *recorder, m map[string]float64, log func(string, ...any)) {
	known := map[string]bool{}
	for _, l := range hostLayers {
		known[l] = true
	}
	var other, sim int64
	var unlisted []string
	for layer, ns := range a.Layer {
		if known[layer] {
			m[layer+".host_share"] = a.share(ns)
			continue
		}
		other += ns
		if a.share(ns) >= 0.01 {
			unlisted = append(unlisted, fmt.Sprintf("%s %.1f%%", layer, 100*a.share(ns)))
		}
	}
	m["other.host_share"] = a.share(other)
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		log("trace: other.host_share includes %s", strings.Join(unlisted, ", "))
	}
	for _, l := range simLayers {
		sim += a.Layer[l]
	}
	if c := traced.cycles.Load(); c > 0 {
		m["cpu.host_ns_per_sim_cycle"] = float64(sim) / float64(c)
	}
}

// Decomposition-check limits.
const (
	maxSelfShare = 0.05 // harness self time, share of op time
	maxGapPP     = 5.0  // span share vs profile share, percentage points
)

// decompose checks the traced phase's breakdown two ways. Within each
// op, the child spans must fit inside the op span, and what is left —
// the benchmark's own time — must stay under maxSelfShare. Across the
// phase, each span that wraps one public function must take the same
// share of the load goroutines' wall time as that function's
// cumulative share of the profile's program time, within maxGapPP.
func decompose(w *workload, traced *recorder, a attribution, m map[string]float64, log func(string, ...any)) {
	spans := traced.recordedSpans()
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var opTime, self int64
	overfull := 0
	for id, s := range spans {
		if s.Parent != noSpan {
			continue
		}
		d := s.End - s.Start
		opTime += d
		if children[id] > d {
			overfull++
			continue
		}
		self += d - children[id]
	}
	selfShare := 0.0
	if opTime > 0 {
		selfShare = float64(self) / float64(opTime)
	}
	m["trace.harness_self_share"] = selfShare

	wall := float64(w.workers) * float64(traced.active)
	gap := 0.0
	for _, c := range w.checks {
		var ns int64
		for _, s := range spans {
			for _, name := range c.spans {
				if s.Name == name {
					ns += s.End - s.Start
				}
			}
		}
		spanShare := float64(ns) / wall
		profShare := a.programShare(a.Cum[c.fn])
		gap = max(gap, 100*math.Abs(spanShare-profShare))
		log("trace: %s spans %.1f%% of wall time, %s %.1f%% of program CPU time",
			strings.Join(c.spans, "+"), 100*spanShare, c.fn, 100*profShare)
	}
	m["trace.decomposition_gap_pp"] = gap

	ok := overfull == 0 && selfShare <= maxSelfShare && gap <= maxGapPP
	if ok {
		m["trace.decomposition_ok"] = 1
	}
	log("trace: decomposition ok=%v (%d ops with children longer than the op, harness self time %.2f%% of op time, largest span/profile gap %.2f pp)",
		ok, overfull, 100*selfShare, gap)
}
