package difftest

// harness.go binds the differential harness to one registered
// front-end profile. Historically every entry point in this package
// was hard-wired to the Skylake model; a Harness carries the profile's
// analysis configuration, the matching simulator core configuration,
// and the generator geometry derived from the profile, so the same
// corpus contracts run under Zen, Zen 2, or the no-DSB control. Under
// profile.Default() (Skylake) the generator draws exactly the
// historical RNG streams, so every committed fuzz seed and golden
// reproduces byte for byte.

import (
	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
)

// Harness is the differential harness for one front-end profile.
type Harness struct {
	// Profile is the frozen profile this harness generates, predicts,
	// and measures under.
	Profile profile.Profile

	cfg    staticlint.Config
	cpuCfg cpu.Config

	// uncLo/uncSpan shape the uncacheable tail regions: single-byte NOP
	// counts drawn from [uncLo, uncLo+uncSpan). uncLo is one µop past
	// the profile's cacheability cap (MaxLinesPerRegion×SlotsPerLine),
	// and the span is clipped so the body still fits a 32-byte region —
	// on Skylake this reproduces the historical 19 + intn(11) draw
	// exactly.
	uncLo   int
	uncSpan int
}

// NewHarness builds a harness for p.
func NewHarness(p profile.Profile) *Harness {
	cfg := staticlint.ConfigForProfile(p)
	cfg.PathBudget = 512
	h := &Harness{
		Profile: p,
		cfg:     cfg,
		cpuCfg:  cpu.FromProfile(p),
		uncLo:   p.UopCapLine() + 1,
	}
	// A region body is NopPerRegion single-byte NOPs plus the 2-byte
	// chain jump, capped at codegen.RegionSize (32) bytes → at most 30
	// NOPs.
	h.uncSpan = 30 - h.uncLo + 1
	if h.uncSpan > 11 {
		h.uncSpan = 11
	}
	if h.uncSpan < 1 {
		h.uncSpan = 1
	}
	return h
}

// Config returns the analysis configuration the harness lints with:
// the profile's model with a path budget covering the largest
// generated chain.
func (h *Harness) Config() staticlint.Config { return h.cfg }

// CPUConfig returns the simulator core configuration the harness
// measures on.
func (h *Harness) CPUConfig() cpu.Config { return h.cpuCfg }
