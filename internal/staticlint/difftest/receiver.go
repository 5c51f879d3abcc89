package difftest

// receiver.go is the attacker-side half of the differential harness.
// difftest.go validates the victim-side cost model (refill deltas of
// the victim's own runs); this file validates the receiver model
// (staticlint.ProbeModel) the same way: for each generated victim it
// builds the real probe chain over the finding's divergent sets with
// internal/attack, runs the actual prime → probe → prime → victim →
// probe protocol on the cycle-level simulator, and holds the model's
// predicted hit and per-direction probe cycles to the same sign and
// ±Tolerance contract the refill deltas answer to. The receiver model
// is exact against a clean machine (see staticlint's receiver tests);
// this harness additionally exposes it to trained branch predictors
// and a victim-polluted replacement state, where only the statistical
// contract — not cycle exactness — is claimed.

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/staticlint"
)

// ProbeResult is one victim's predicted-vs-measured attacker view:
// what the receiver model says the attacker's stopwatch will show, and
// what the simulated attacker actually measured.
type ProbeResult struct {
	Seed uint64
	// Pred is the receiver model's histogram from the victim's
	// dsb-footprint-divergence finding.
	Pred *staticlint.ProbeHistogram
	// MeasHitTaken/MeasHitFall are the measured hit probes (prime then
	// probe, no victim activity between) of each direction's run;
	// MeasTaken/MeasFall the measured victim-perturbed probes.
	MeasHitTaken, MeasHitFall int
	MeasTaken, MeasFall       int
	Victim                    *Victim
}

// RunProbeWith generates the victim for seed, takes the receiver
// model's histogram off its divergence finding, and measures the
// predicted protocol for real: the receiver chain from
// staticlint.ReceiverSpec is merged into the victim's address space,
// and each secret direction gets a fresh core (drawing guest memory
// from arena, which may be nil), training runs to settle the branch
// predictors, then one attack.MeasureRounds round with the victim's
// runs as the sender activity. The prime+probe protocol has no meaning
// without a DSB to contend in, so a no-DSB harness refuses outright —
// the matrix tests assert that refusal rather than skipping silently.
func (h *Harness) RunProbeWith(seed uint64, arena *cpu.Arena) (ProbeResult, error) {
	if !h.Profile.HasDSB() {
		return ProbeResult{}, fmt.Errorf("difftest seed %d: profile %s has no DSB to probe", seed, h.Profile.Name)
	}
	v, err := h.Generate(seed)
	if err != nil {
		return ProbeResult{}, err
	}
	p, err := h.Predict(v)
	if err != nil {
		return ProbeResult{}, err
	}
	hist := p.Finding.Probe
	if hist == nil {
		return ProbeResult{}, fmt.Errorf("difftest seed %d: finding carries no probe histogram", seed)
	}
	cfg := h.Config()
	recv, err := attack.Build(staticlint.ReceiverSpec(cfg, p.Finding.DivergentSets))
	if err != nil {
		return ProbeResult{}, fmt.Errorf("difftest seed %d: %w", seed, err)
	}
	merged, err := asm.Merge(v.Prog, recv.Prog)
	if err != nil {
		return ProbeResult{}, fmt.Errorf("difftest seed %d: merging receiver: %w", seed, err)
	}

	measure := func(secret int64) (hit, miss int, err error) {
		c := cpu.NewWith(h.cpuCfg, arena)
		c.LoadProgram(merged)
		c.Mem().Write(SecretAddr, 1, secret)
		victim := func(tag string) error {
			res := c.Run(0, v.Entry, maxCycles)
			if res.TimedOut {
				return fmt.Errorf("difftest seed %d: %s victim run timed out", seed, tag)
			}
			return nil
		}
		for i := 0; i < trainRuns; i++ {
			if err := victim("train"); err != nil {
				return 0, 0, err
			}
		}
		r, err := attack.MeasureRounds(c, recv, func() error {
			for i := 0; i < staticlint.DefaultVictimRuns; i++ {
				if err := victim("send"); err != nil {
					return err
				}
			}
			return nil
		}, staticlint.DefaultPrimeTraversals, staticlint.DefaultProbeIters, 1)
		if err != nil {
			return 0, 0, fmt.Errorf("difftest seed %d: %w", seed, err)
		}
		return int(r.Hit[0]), int(r.Miss[0]), nil
	}

	ht, mt, err := measure(1)
	if err != nil {
		return ProbeResult{}, err
	}
	hf, mf, err := measure(0)
	if err != nil {
		return ProbeResult{}, err
	}
	return ProbeResult{
		Seed:         seed,
		Pred:         hist,
		MeasHitTaken: ht,
		MeasHitFall:  hf,
		MeasTaken:    mt,
		MeasFall:     mf,
		Victim:       v,
	}, nil
}

// Validate applies the acceptance contract to one probe result: the
// predicted hit probe and each direction's predicted victim-perturbed
// probe within Tolerance of measurement, and the cross-direction
// asymmetry — which direction costs the attacker more probe time —
// agreeing in sign whenever either side claims at least SignFloor
// cycles of it.
func (r ProbeResult) Validate() error {
	check := func(tag string, pred, meas int) error {
		if meas <= 0 {
			return fmt.Errorf("seed %d %s probe: measured %d cycles not positive", r.Seed, tag, meas)
		}
		diff := pred - meas
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > Tolerance*float64(meas) {
			return fmt.Errorf("seed %d %s probe: predicted %d vs measured %d cycles (%.1f%% off, tolerance %.0f%%)\nvictim: %s",
				r.Seed, tag, pred, meas, 100*float64(diff)/float64(meas), 100*Tolerance, r.Describe())
		}
		return nil
	}
	if err := check("hit (taken run)", r.Pred.HitCycles, r.MeasHitTaken); err != nil {
		return err
	}
	if err := check("hit (fallthrough run)", r.Pred.HitCycles, r.MeasHitFall); err != nil {
		return err
	}
	if err := check("taken", r.Pred.Taken.Cycles, r.MeasTaken); err != nil {
		return err
	}
	if err := check("fallthrough", r.Pred.Fall.Cycles, r.MeasFall); err != nil {
		return err
	}
	predDiff := r.Pred.Taken.Cycles - r.Pred.Fall.Cycles
	measDiff := r.MeasTaken - r.MeasFall
	if abs(predDiff) >= SignFloor && abs(measDiff) >= SignFloor && (predDiff > 0) != (measDiff > 0) {
		return fmt.Errorf("seed %d: predicted probe asymmetry %+d disagrees in sign with measured %+d\nvictim: %s",
			r.Seed, predDiff, measDiff, r.Describe())
	}
	return nil
}

// Describe renders the victim's shape for failure messages.
func (r ProbeResult) Describe() string {
	return Result{Victim: r.Victim}.Describe()
}
