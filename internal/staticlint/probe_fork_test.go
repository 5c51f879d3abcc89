package staticlint_test

import (
	"reflect"
	"testing"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
)

// TestProbeModelForkOnDifftestSeeds extends the fork-equals-full-replay
// check to generated victims: for each FuzzProbeModel seed, the
// histogram the footprint-divergence checker attaches to the victim's
// branch must equal a full per-direction replay over the same
// footprints.
func TestProbeModelForkOnDifftestSeeds(t *testing.T) {
	h := difftest.NewHarness(profile.Default())
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
		want, err := staticlint.ProbeModelFullReplay(cfg, taken, fall, div)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: forked replay\n%+v\nfull replay\n%+v", seed, got, want)
		}
	}
}
