package experiments

import (
	"fmt"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

func init() {
	Registry["probemodel"] = func(o Options) (Renderable, error) { return ProbeModel(o) }
}

// probemodelSeeds are the victims the table reports — the canonical
// per-shape specimens whose probe predictions are pinned in
// internal/staticlint/difftest/testdata/probe.golden.
var probemodelSeeds = []uint64{0, 1, 2, 3, 5, 19}

// ProbeModel renders the receiver model's validation: what the static
// analyzer predicts the attacker's stopwatch will show — the hit probe
// with the receiver resident, and each secret direction's
// victim-perturbed probe — next to what the real prime → probe → prime
// → victim → probe protocol (internal/attack) measures on the
// cycle-level simulator, plus the separation margin the finding's
// probe histogram claims against the calibration floor. The
// differential harness (internal/staticlint/difftest) holds every row
// — and hundreds of fuzzed siblings — to sign agreement and a ±25%
// accuracy contract in CI; in practice the model is cycle-exact for
// these victims.
func ProbeModel(o Options) (*Table, error) {
	t := &Table{
		ID:    "probemodel",
		Title: "Predicted vs measured attacker probe cycles (prime+probe receiver)",
		Columns: []string{
			"Victim (seed)", "Probe", "Predicted", "Measured", "Error", "Margin",
		},
	}
	results, err := difftest.NewHarness(profile.Default()).RunProbeMany(probemodelSeeds, o.Workers)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: probemodel seed %d out of contract: %w", r.Seed, err)
		}
		margin := fmt.Sprintf("%.2f×", r.Pred.SeparationMargin)
		if !r.Pred.Distinguishable {
			margin += " (below floor)"
		}
		for _, d := range []struct {
			probe      string
			pred, meas int
		}{
			{"hit", r.Pred.HitCycles, r.MeasHitTaken},
			{"taken", r.Pred.Taken.Cycles, r.MeasTaken},
			{"fallthrough", r.Pred.Fall.Cycles, r.MeasFall},
		} {
			errPct := 100 * float64(d.pred-d.meas) / float64(d.meas)
			if errPct < 0 {
				errPct = -errPct
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("difftest-%d", r.Seed),
				d.probe,
				fmt.Sprintf("%d", d.pred),
				fmt.Sprintf("%d", d.meas),
				fmt.Sprintf("%.1f%%", errPct),
				margin,
			})
		}
	}
	return t, nil
}
