package staticlint_test

import (
	"reflect"
	"testing"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
)

// TestProbeModelForkOnDifftestSeeds holds the receiver model to its
// literal full replay on generated victims: under every profile with a
// µop cache, for each FuzzProbeModel seed, the histogram the
// footprint-divergence checker attaches to the victim's branch must
// equal ProbeModelFullReplay over the same footprints — every segment
// priced on its own, every traversal and victim run replayed.
func TestProbeModelForkOnDifftestSeeds(t *testing.T) {
	for _, p := range profile.All() {
		if !p.HasDSB() {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			h := difftest.NewHarness(p)
			cfg := h.Config()
			for _, seed := range []uint64{0, 1, 5, 7, 9, 19, 220} {
				v, err := h.Generate(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				a := staticlint.Analyze(v.Prog, difftest.Spec(), cfg)
				var got *staticlint.ProbeHistogram
				for _, f := range (staticlint.FootprintDivergenceChecker{}).Check(a) {
					if f.Addr == v.Branch {
						got = f.Probe
					}
				}
				if got == nil {
					t.Fatalf("seed %d: no probe histogram at branch %#x", seed, v.Branch)
				}
				taken, fall, div := staticlint.BranchFootprints(a, v.Branch)
				want, err := staticlint.ProbeModelFullReplay(cfg,
					staticlint.DefaultPrimeTraversals, staticlint.DefaultVictimRuns, taken, fall, div)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: ProbeModel\n%+v\nfull replay\n%+v", seed, got, want)
				}
			}
		})
	}
}
