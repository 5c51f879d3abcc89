package experiments

import (
	"fmt"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

func init() {
	register("alignchannel", func(o Options) (Renderable, error) { return AlignChannel(o) })
}

// alignChannelSeeds are the pinned-shape alignment victims the table
// reports; the 200-seed corpus in internal/staticlint/difftest holds
// their fuzzed siblings to the same contract in CI.
var alignChannelSeeds = []uint64{1, 2, 3, 5, 8, 13}

// AlignChannel renders the jump-alignment channel's validation: for
// generated victims whose two branch directions differ only in where
// their conditional jumps sit relative to the 16-byte predecode
// window (difftest.ShapeAlign), the per-direction refill delta the
// static checker predicts next to the delta the cycle-level simulator
// measures, with the alignment-stall component broken out. The
// straddling direction carries one boundary-crossing jcc per chain
// region, each worth decode.Config.JccAlignPenalty cycles of MITE-only
// predecoder stall — the Frontal-attack effect the covert channel in
// internal/channel transmits bits through.
func AlignChannel(o Options) (*Table, error) {
	t := &Table{
		ID:    "alignchannel",
		Title: "Jump-alignment channel: predicted vs measured refill deltas (probe cycles)",
		Columns: []string{
			"Victim (seed)", "Direction", "Straddling jccs", "Align stall", "Predicted", "Measured", "Error",
		},
	}
	results, err := difftest.NewHarness(profile.Default()).RunShapeMany(alignChannelSeeds, o.Workers, difftest.ShapeAlign)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: alignchannel seed %d out of contract: %w", r.Seed, err)
		}
		for _, d := range []struct {
			dir        string
			jccs       int
			stall      int
			pred, meas int
		}{
			{"taken", r.Prediction.TakenCost.AlignJccs, r.Prediction.TakenCost.AlignStallCycles, r.PredTaken, r.MeasTaken},
			{"fallthrough", r.Prediction.FallCost.AlignJccs, r.Prediction.FallCost.AlignStallCycles, r.PredFall, r.MeasFall},
		} {
			errPct := 100 * float64(d.pred-d.meas) / float64(d.meas)
			if errPct < 0 {
				errPct = -errPct
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("align-%d", r.Seed),
				d.dir,
				fmt.Sprintf("%d", d.jccs),
				fmt.Sprintf("%dc", d.stall),
				fmt.Sprintf("%d", d.pred),
				fmt.Sprintf("%d", d.meas),
				fmt.Sprintf("%.1f%%", errPct),
			})
		}
	}
	return t, nil
}
