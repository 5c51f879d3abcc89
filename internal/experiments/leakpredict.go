package experiments

import (
	"fmt"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

func init() {
	Registry["leakpredict"] = func(o Options) (Renderable, error) { return LeakPredict(o) }
}

// leakpredictSeeds are the victims the table reports — the canonical
// per-shape specimens whose predictions are pinned in
// internal/staticlint/difftest/testdata/canonical.golden.
var leakpredictSeeds = []uint64{0, 1, 2, 3, 5, 19}

// LeakPredict renders the static leakage quantifier's validation: for
// generated secret-branching victims, the probe-cycle refill delta the
// linter predicts per secret direction next to the delta the
// cycle-level simulator measures (warm run vs µop-cache-flushed run).
// The differential fuzzing harness (internal/staticlint/difftest)
// holds every row — and hundreds of fuzzed siblings — to sign
// agreement and a ±25% accuracy contract in CI.
func LeakPredict(o Options) (*Table, error) {
	t := &Table{
		ID:    "leakpredict",
		Title: "Predicted vs measured µop-cache refill deltas (probe cycles)",
		Columns: []string{
			"Victim (seed)", "Direction", "Predicted", "Measured", "Error",
		},
	}
	results, err := difftest.NewHarness(profile.Default()).RunMany(leakpredictSeeds, o.Workers)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: leakpredict seed %d out of contract: %w", r.Seed, err)
		}
		for _, d := range []struct {
			dir        string
			pred, meas int
		}{
			{"taken", r.PredTaken, r.MeasTaken},
			{"fallthrough", r.PredFall, r.MeasFall},
		} {
			errPct := 100 * float64(d.pred-d.meas) / float64(d.meas)
			if errPct < 0 {
				errPct = -errPct
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("difftest-%d", r.Seed),
				d.dir,
				fmt.Sprintf("%d", d.pred),
				fmt.Sprintf("%d", d.meas),
				fmt.Sprintf("%.1f%%", errPct),
			})
		}
	}
	return t, nil
}
