package staticlint

// Front-end delivery-channel checkers: leakage that needs no footprint
// divergence at all. Even when a secret branch's two successor paths
// occupy identical micro-op cache sets, the *shape* of legacy delivery
// can differ — conditional jumps straddling a predecode-window
// boundary stall the predecoder (the Frontal-attack effect), and paths
// crossing different numbers of DSB↔MITE switch points pay different
// transition-bubble totals (the Leaky-Frontends channel). Both
// checkers price the asymmetry from the profile's decode and µop cache
// configurations — the values the simulated core is built from — so
// every headline number is differentially validated by
// internal/staticlint/difftest.

import (
	"fmt"

	"deaduops/internal/isa"
)

// JumpAlignmentChecker flags secret-dependent conditional branches
// whose two successor paths place conditional jumps at divergent
// predecode-window alignments: one direction's jumps straddle 16-byte
// boundaries (paying decode.Config.JccAlignPenalty per jump under
// legacy decode) while the other's do not. The stall is MITE-only, so
// the directions' DSB refill penalties differ by the alignment delta —
// a timing channel that leaks the branch direction even when both
// paths are µop-identical and footprint-identical.
type JumpAlignmentChecker struct{}

// Name implements Checker.
func (JumpAlignmentChecker) Name() string { return "secret-dependent-jump-alignment" }

// Check implements Checker.
func (c JumpAlignmentChecker) Check(a *Analysis) []Finding {
	var out []Finding
	if a.Cfg.Decode.JccAlignPenalty <= 0 {
		return out // the modelled frontend has no alignment effect
	}
	for _, sb := range a.branches {
		if sb.inst.Op != isa.JCC {
			continue
		}
		delta := sb.takenCost.AlignStallCycles - sb.fallCost.AlignStallCycles
		if delta == 0 {
			continue
		}
		f := a.finding(c.Name(), SevWarning, sb, fmt.Sprintf(
			"secret-dependent branch %v: successor paths place conditional jumps at divergent predecode-window alignments (taken straddles %d boundary(ies), fallthrough %d); predicted align delta %+dc of MITE-only stall",
			sb.inst, sb.takenCost.AlignJccs, sb.fallCost.AlignJccs, delta))
		f.TakenCost, f.FallCost = sb.costs()
		f.ProbeDeltaCycles = sb.takenCost.RefillDelta - sb.fallCost.RefillDelta
		f.AlignDeltaCycles = delta
		out = append(out, f)
	}
	return out
}

// SwitchPointChecker flags secret-dependent conditional branches whose
// two successor paths cross different numbers of DSB→MITE switch
// points on a warm traversal — one direction re-enters legacy decode
// (uncacheable regions, MSROM streams) more often than the other.
// Every switch costs a fetch bubble of 1 + SwitchPenalty cycles that
// no amount of cache warming removes, so the directions stay
// distinguishable even against a receiver that cannot evict the
// victim: the transition count itself is the transmitter.
type SwitchPointChecker struct{}

// Name implements Checker.
func (SwitchPointChecker) Name() string { return "dsb-mite-switch" }

// Check implements Checker.
func (c SwitchPointChecker) Check(a *Analysis) []Finding {
	var out []Finding
	// With the DSB disabled the machine never leaves legacy decode —
	// there are no DSB→MITE transitions for the counts to diverge on,
	// so the channel this checker prices does not exist.
	if a.Cfg.UopCache.Disabled {
		return out
	}
	bubble := 1 + a.Cfg.UopCache.SwitchPenalty
	for _, sb := range a.branches {
		if sb.inst.Op != isa.JCC {
			continue
		}
		diff := sb.takenCost.WarmSwitchPoints - sb.fallCost.WarmSwitchPoints
		if diff == 0 {
			continue
		}
		delta := diff * bubble
		f := a.finding(c.Name(), SevWarning, sb, fmt.Sprintf(
			"secret-dependent branch %v: successor paths cross divergent DSB→MITE switch-point counts on a warm traversal (taken %d, fallthrough %d); predicted switch delta %+dc at %dc per switch bubble",
			sb.inst, sb.takenCost.WarmSwitchPoints, sb.fallCost.WarmSwitchPoints, delta, bubble))
		f.TakenCost, f.FallCost = sb.costs()
		f.ProbeDeltaCycles = sb.takenCost.RefillDelta - sb.fallCost.RefillDelta
		f.SwitchDeltaCycles = delta
		out = append(out, f)
	}
	return out
}
