package difftest

// receiver.go is the attacker-side half of the differential harness.
// difftest.go validates the victim-side cost model (refill deltas of
// the victim's own runs); this file validates the receiver model
// (staticlint.ProbeModel) the same way: for each generated victim it
// builds the real probe chain over the finding's divergent sets with
// internal/attack, runs the actual prime → probe → prime → victim →
// probe protocol on the cycle-level simulator — on the same
// PointRunner core and training sequence the refill measurement uses —
// and holds the model's
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
// and one PointRunner over the merged image (drawing guest memory and
// checkpoint buffers from arena, which may be nil) trains each secret
// direction from the pristine checkpoint exactly as Measure does, then
// runs one attack.MeasureRounds round with the victim's runs as the
// sender activity. The prime+probe protocol has no meaning without a
// DSB to contend in, so a no-DSB harness refuses outright — the matrix
// tests assert that refusal rather than skipping silently.
func (h *Harness) RunProbeWith(seed uint64, arena *cpu.Arena) (ProbeResult, error) {
	g, err := h.newProbeRig(seed)
	if err != nil {
		return ProbeResult{}, err
	}
	r := h.NewPointRunner(g.merged, arena)
	var hit, miss [2]int
	for d, secret := range []int64{1, 0} {
		if err := r.train(secret); err != nil {
			return ProbeResult{}, err
		}
		rounds, err := attack.MeasureRounds(r.c, g.recv, func() error {
			for i := 0; i < staticlint.DefaultVictimRuns; i++ {
				if res := r.c.Run(0, g.v.Entry, maxCycles); res.TimedOut {
					return fmt.Errorf("difftest seed %d: send victim run timed out", seed)
				}
			}
			return nil
		}, staticlint.DefaultPrimeTraversals, staticlint.DefaultProbeIters, 1)
		if err != nil {
			return ProbeResult{}, fmt.Errorf("difftest seed %d: %w", seed, err)
		}
		hit[d], miss[d] = int(rounds.Hit[0]), int(rounds.Miss[0])
	}
	return ProbeResult{
		Seed:         seed,
		Pred:         g.hist,
		MeasHitTaken: hit[0],
		MeasHitFall:  hit[1],
		MeasTaken:    miss[0],
		MeasFall:     miss[1],
		Victim:       g.v,
	}, nil
}

// probeRig is everything the probe protocol runs on for one seed: the
// victim, the receiver model's histogram off its divergence finding,
// and the receiver chain.
type probeRig struct {
	v *Victim
	// merged is a copy of v whose image also holds the receiver chain.
	merged *Victim
	hist   *staticlint.ProbeHistogram
	recv   *attack.Routine
}

func (h *Harness) newProbeRig(seed uint64) (probeRig, error) {
	if !h.Profile.HasDSB() {
		return probeRig{}, fmt.Errorf("difftest seed %d: profile %s has no DSB to probe", seed, h.Profile.Name)
	}
	v, err := h.Generate(seed)
	if err != nil {
		return probeRig{}, err
	}
	p, err := h.Predict(v)
	if err != nil {
		return probeRig{}, err
	}
	if p.Finding.Probe == nil {
		return probeRig{}, fmt.Errorf("difftest seed %d: finding carries no probe histogram", seed)
	}
	recv, err := attack.Build(staticlint.ReceiverSpec(h.cfg, p.Finding.DivergentSets))
	if err != nil {
		return probeRig{}, fmt.Errorf("difftest seed %d: %w", seed, err)
	}
	merged := *v
	if merged.Prog, err = asm.Merge(v.Prog, recv.Prog); err != nil {
		return probeRig{}, fmt.Errorf("difftest seed %d: merging receiver: %w", seed, err)
	}
	return probeRig{v: v, merged: &merged, hist: p.Finding.Probe, recv: recv}, nil
}

// Validate applies the acceptance contract to one probe result: the
// predicted hit probe and each direction's predicted victim-perturbed
// probe within Tolerance of measurement, and the cross-direction
// asymmetry — which direction costs the attacker more probe time —
// agreeing in sign whenever either side claims at least SignFloor
// cycles of it.
func (r ProbeResult) Validate() error {
	for _, c := range []struct {
		tag        string
		pred, meas int
	}{
		{"hit (taken run)", r.Pred.HitCycles, r.MeasHitTaken},
		{"hit (fallthrough run)", r.Pred.HitCycles, r.MeasHitFall},
		{"taken", r.Pred.Taken.Cycles, r.MeasTaken},
		{"fallthrough", r.Pred.Fall.Cycles, r.MeasFall},
	} {
		if c.meas <= 0 {
			return fmt.Errorf("seed %d %s probe: measured %d cycles not positive", r.Seed, c.tag, c.meas)
		}
		if err := checkTolerance(r.Seed, r.Victim, c.tag+" probe", " cycles", c.pred, c.meas); err != nil {
			return err
		}
	}
	return checkSign(r.Seed, r.Victim, "asymmetry",
		r.Pred.Taken.Cycles-r.Pred.Fall.Cycles, r.MeasTaken-r.MeasFall)
}

// Describe renders the victim's shape for failure messages.
func (r ProbeResult) Describe() string { return describeVictim(r.Victim) }
