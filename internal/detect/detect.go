// Package detect implements the §VIII performance-counter-based
// monitoring countermeasure: classifying workloads as suspicious by
// their micro-op cache behaviour. The paper observes that sudden jumps
// in micro-op cache misses can reveal an attack, while cautioning that
// such monitors are prone to misclassification and mimicry; the
// Extract function exposes the raw feature vector so those limits can
// be studied.
package detect

import (
	"fmt"

	"deaduops/internal/perfctr"
)

// Features is the per-run feature vector the monitor extracts from a
// performance-counter delta.
type Features struct {
	// DSBMissPenaltyPerUop is the micro-op cache miss penalty in
	// cycles, normalized per delivered µop — the paper's primary signal.
	DSBMissPenaltyPerUop float64
	// MITEFraction is the share of µops delivered by the legacy decode
	// pipeline. Steady-state benign hot code runs near zero; conflict
	// attacks keep it high.
	MITEFraction float64
	// SwitchesPerKUop is the DSB→MITE switch rate per 1000 µops.
	SwitchesPerKUop float64
}

// Extract computes the feature vector from a counter delta. The
// denominator counts every delivered µop: DSB, MITE, MSROM and the
// loop stream detector's replays.
func Extract(d perfctr.Snapshot) Features {
	uops := float64(d.Get(perfctr.DSBUops) + d.Get(perfctr.MITEUops) +
		d.Get(perfctr.MSROMUops) + d.Get(perfctr.LSDUops))
	if uops == 0 {
		return Features{}
	}
	return Features{
		DSBMissPenaltyPerUop: float64(d.Get(perfctr.DSBMissPenaltyCycles)) / uops,
		MITEFraction:         float64(d.Get(perfctr.MITEUops)) / uops,
		SwitchesPerKUop:      1000 * float64(d.Get(perfctr.DSB2MITESwitches)) / uops,
	}
}

// The monitor's decision boundary: a feature strictly above its bound
// trips that detector. The bounds are calibrated so steady-state benign
// loops (which run almost entirely out of the micro-op cache) score
// clean while conflict-attack phases (which force continual DSB misses)
// trip at least two detectors.
const (
	MissPenaltyPerUopBound = 0.5
	MITEFractionBound      = 0.25
	SwitchesPerKUopBound   = 50
)

// Score returns how many detectors the features trip (0-3).
func Score(f Features) int {
	n := 0
	if f.DSBMissPenaltyPerUop > MissPenaltyPerUopBound {
		n++
	}
	if f.MITEFraction > MITEFractionBound {
		n++
	}
	if f.SwitchesPerKUop > SwitchesPerKUopBound {
		n++
	}
	return n
}

// Suspicious reports whether a counter delta trips a majority of
// detectors.
func Suspicious(d perfctr.Snapshot) bool {
	return Score(Extract(d)) >= 2
}

// String renders the feature vector.
func (f Features) String() string {
	return fmt.Sprintf("penalty/µop=%.3f mite=%.1f%% switches/kµop=%.1f",
		f.DSBMissPenaltyPerUop, 100*f.MITEFraction, f.SwitchesPerKUop)
}
