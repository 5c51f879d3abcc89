package staticlint

import (
	"testing"

	"deaduops/internal/backend"
	"deaduops/internal/cpu"
	"deaduops/internal/decode"
	"deaduops/internal/profile"
	"deaduops/internal/uopcache"
)

// TestCostTableSharedWithFrontend pins the quantifier's one-source-of-
// truth contract on the default machine: the cost table staticlint
// prices paths with must hold the very decode and µop cache
// configurations the Skylake fetch engine runs (decode.Skylake and
// uopcache.Skylake), extended
// only by the backend drain parameters the front end has no use for.
// If either side grows a constant of its own, the difftest calibration
// silently rots — this test makes the drift loud.
func TestCostTableSharedWithFrontend(t *testing.T) {
	lint := DefaultConfig().Costs()
	dc, uc := decode.Skylake(), uopcache.Skylake()

	if lint.Decode != dc {
		t.Errorf("decode configs diverge: lint %+v, frontend %+v", lint.Decode, dc)
	}
	if lint.Cache != uc {
		t.Errorf("cache configs diverge: lint %+v, frontend %+v", lint.Cache, uc)
	}

	// The drain bound is the quantifier's extension: width comes from
	// the backend's own constant, not a copied literal.
	if lint.DrainWidth != backend.DispatchWidth {
		t.Errorf("drain width %d, want backend dispatch width %d", lint.DrainWidth, backend.DispatchWidth)
	}
	if lint.DrainLag != DefaultDrainLag {
		t.Errorf("drain lag %d, want %d", lint.DrainLag, DefaultDrainLag)
	}
}

// TestCostTableSharedPerProfile extends the one-source-of-truth
// contract across the whole profile matrix: for every registered
// profile, the table ConfigForProfile prices with is built from the
// µop cache and decode configurations and the backend dispatch width
// that cpu.FromProfile hands the simulated core. If either side grows
// a constant of its own, the difftest calibration silently rots — this
// test makes the drift loud.
func TestCostTableSharedPerProfile(t *testing.T) {
	for _, p := range profile.All() {
		lint := ConfigForProfile(p).Costs()
		core := cpu.FromProfile(p)
		if lint.Cache != core.UopCache {
			t.Errorf("%s: cache configs diverge: lint %+v, core %+v", p.Name, lint.Cache, core.UopCache)
		}
		if lint.Decode != core.Frontend.Decode {
			t.Errorf("%s: decode configs diverge: lint %+v, core %+v", p.Name, lint.Decode, core.Frontend.Decode)
		}
		if lint.DrainWidth != backend.DispatchWidth {
			t.Errorf("%s: drain width %d, want backend dispatch width %d", p.Name, lint.DrainWidth, backend.DispatchWidth)
		}
		if lint.DrainLag != DefaultDrainLag || lint.RunOverhead != DefaultRunOverhead {
			t.Errorf("%s: drain lag %d / run overhead %d, want %d / %d",
				p.Name, lint.DrainLag, lint.RunOverhead, DefaultDrainLag, DefaultRunOverhead)
		}
	}
}

// TestDefaultConfigIsDefaultProfile pins the compatibility contract
// behind every existing golden: the un-parameterized DefaultConfig is
// exactly the default profile's configuration.
func TestDefaultConfigIsDefaultProfile(t *testing.T) {
	def := DefaultConfig()
	sky := ConfigForProfile(profile.Default())
	if def.UopCache != sky.UopCache || def.Decode != sky.Decode ||
		def.PathBudget != sky.PathBudget {
		t.Errorf("DefaultConfig %+v != ConfigForProfile(default) %+v", def, sky)
	}
	if profile.Default().Name != "skylake" {
		t.Errorf("default profile is %q, want skylake", profile.Default().Name)
	}
}

// TestDrainBound pins the warm-run lower bound's arithmetic, including
// the whole-run pipeline-fill lag that RunCost applies and CostRanges
// (marginal path pricing) deliberately does not.
func TestDrainBound(t *testing.T) {
	ct := DefaultConfig().Costs()
	for _, tc := range []struct {
		uops, want int
	}{
		{0, DefaultDrainLag},
		{1, 1 + DefaultDrainLag},
		{4, 1 + DefaultDrainLag},
		{5, 2 + DefaultDrainLag},
		{40, 10 + DefaultDrainLag},
	} {
		if got := ct.DrainBound(tc.uops); got != tc.want {
			t.Errorf("DrainBound(%d) = %d, want %d", tc.uops, got, tc.want)
		}
		if got, want := ct.DrainCycles(tc.uops), tc.want-DefaultDrainLag; got != want {
			t.Errorf("DrainCycles(%d) = %d, want %d", tc.uops, got, want)
		}
	}
}
