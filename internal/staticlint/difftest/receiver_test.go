package difftest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestProbeCorpus holds the receiver model to the acceptance contract
// over the same corpus the refill-delta harness validates: for every
// generated victim, the predicted hit probe and each direction's
// predicted victim-perturbed probe must land within Tolerance of the
// measured attack protocol, with sign agreement on the cross-direction
// asymmetry. In practice the model is cycle-exact for these victims
// (their non-footprint code avoids the probed sets); the log line
// reports how far measurement ever strayed.
func TestProbeCorpus(t *testing.T) {
	worst := 0.0
	exact := 0
	results, err := skylake.RunProbeMany(SeedRange(1, corpusSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
			continue
		}
		allExact := true
		for _, d := range []struct{ pred, meas int }{
			{r.Pred.HitCycles, r.MeasHitTaken},
			{r.Pred.HitCycles, r.MeasHitFall},
			{r.Pred.Taken.Cycles, r.MeasTaken},
			{r.Pred.Fall.Cycles, r.MeasFall},
		} {
			if d.pred != d.meas {
				allExact = false
			}
			off := float64(d.pred-d.meas) / float64(d.meas)
			if off < 0 {
				off = -off
			}
			if off > worst {
				worst = off
			}
		}
		if allExact {
			exact++
		}
	}
	t.Logf("validated %d victims; %d cycle-exact; worst relative error %.2f%%",
		corpusSize, exact, 100*worst)
}

type probeRecord struct {
	Seed     uint64 `json:"seed"`
	Victim   string `json:"victim"`
	Hit      int    `json:"predicted_hit_probe_cycles"`
	Taken    int    `json:"predicted_taken_probe_cycles"`
	Fall     int    `json:"predicted_fallthrough_probe_cycles"`
	MeasHitT int    `json:"measured_hit_probe_cycles_taken_run"`
	MeasHitF int    `json:"measured_hit_probe_cycles_fallthrough_run"`
	MeasT    int    `json:"measured_taken_probe_cycles"`
	MeasF    int    `json:"measured_fallthrough_probe_cycles"`
}

// TestProbeGolden pins the attacker-observed probe cycles of the same
// canonical per-shape victims TestCanonicalGolden pins refill deltas
// for; run with -update after an intentional receiver-model change.
func TestProbeGolden(t *testing.T) {
	var records []probeRecord
	for _, seed := range canonicalSeeds {
		r, err := skylake.RunProbeWith(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("canonical victim no longer validates: %v", err)
		}
		records = append(records, probeRecord{
			Seed:     r.Seed,
			Victim:   r.Describe(),
			Hit:      r.Pred.HitCycles,
			Taken:    r.Pred.Taken.Cycles,
			Fall:     r.Pred.Fall.Cycles,
			MeasHitT: r.MeasHitTaken,
			MeasHitF: r.MeasHitFall,
			MeasT:    r.MeasTaken,
			MeasF:    r.MeasFall,
		})
	}
	got, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "probe.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("canonical probe predictions drifted from golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestProbeHistogramConsistency checks internal coherence of the
// emitted histograms against what the harness measured: the histogram
// claims distinguishability exactly when its separation margin clears
// the floor, and a distinguishable prediction implies the measured
// protocol actually yields probes the predicted direction cut
// classifies correctly (hit probes below the cut, the slower
// direction's miss probe at or above it).
func TestProbeHistogramConsistency(t *testing.T) {
	for _, seed := range canonicalSeeds {
		r, err := skylake.RunProbeWith(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := r.Pred
		if (h.SeparationMargin >= h.SeparationFloor) != h.Distinguishable {
			t.Errorf("seed %d: margin %.2f vs floor %.2f inconsistent with distinguishable=%v",
				seed, h.SeparationMargin, h.SeparationFloor, h.Distinguishable)
		}
		if !h.Distinguishable {
			continue
		}
		cut := h.DirectionCut
		if !(float64(r.MeasHitTaken) < cut && float64(r.MeasHitFall) < cut) {
			t.Errorf("seed %d: measured hit probes %d/%d not below predicted direction cut %.1f",
				seed, r.MeasHitTaken, r.MeasHitFall, cut)
		}
		slow := r.MeasTaken
		if r.MeasFall > slow {
			slow = r.MeasFall
		}
		if float64(slow) < cut {
			t.Errorf("seed %d: slower measured direction probe %d below predicted direction cut %.1f",
				seed, slow, cut)
		}
	}
}

// FuzzProbeModel throws random seeds at the generator and holds the
// receiver model's probe predictions to the acceptance contract. The
// committed seeds mirror the refill-delta fuzz anchors: one victim per
// shape (0 callee-reg, 1 uncacheable, 5 callee-spill, 7 nested, 9
// shared-suffix, 19 leaf) plus 220, the refill harness's near-tie
// anchor.
func FuzzProbeModel(f *testing.F) {
	for _, seed := range []uint64{0, 1, 5, 7, 9, 19, 220} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r, err := skylake.RunProbeWith(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	})
}
