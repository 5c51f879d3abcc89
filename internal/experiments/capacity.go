package experiments

import (
	"fmt"

	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/profile"
)

func init() {
	Registry["capacity"] = func(o Options) (Renderable, error) { return CapacityAcrossGenerations(o) }
}

// CapacityAcrossGenerations extends Fig 3a across the microarchitecture
// generations the paper mentions: the Fig 3a capacity knee must track
// each design's line count — Skylake's 256 lines, Sunny Cove's 1.5×
// (384), Zen's 256, and Zen-2's 512 (4K µops). An attacker calibrating
// the channel on a new part would run exactly this sweep.
func CapacityAcrossGenerations(o Options) (*Table, error) {
	t := &Table{
		ID:    "capacity",
		Title: "Micro-op cache capacity knee across generations",
		Columns: []string{
			"Microarchitecture", "Lines (sets×ways)", "µop capacity",
			"Measured knee (regions)",
		},
	}
	configs := []struct {
		name string
		cfg  cpu.Config
	}{
		{"Intel Skylake/Coffee Lake", cpu.Intel()},
		{"Intel Sunny Cove", cpu.FromProfile(profile.SunnyCove())},
		{"AMD Zen", cpu.AMD()},
		{"AMD Zen 2", cpu.FromProfile(profile.Zen2())},
	}
	rows, err := sweep(o, len(configs), func(a *cpu.Arena, i int) ([]string, error) {
		c := configs[i]
		uc := c.cfg.UopCache
		knee, err := capacityKnee(c.cfg, a)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		return []string{
			c.name,
			fmt.Sprintf("%d (%d×%d)", uc.Sets*uc.Ways, uc.Sets, uc.Ways),
			fmt.Sprint(uc.Capacity()),
			fmt.Sprint(knee),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// capacityWarmup and capacityIters are the warm-up and measured
// traversals of every loop the capacity sweep runs.
const (
	capacityWarmup = 10
	capacityIters  = 30
)

// capacityKnee runs the Listing 1 sweep on the given configuration and
// returns the first loop size whose steady-state legacy-decode traffic
// exceeds the near-zero baseline.
func capacityKnee(cfg cpu.Config, a *cpu.Arena) (int, error) {
	lines := cfg.UopCache.Sets * cfg.UopCache.Ways
	// Sweep around the expected knee in single-line steps of 8 regions.
	// The scan early-exits at the knee, so it stays sequential within
	// one configuration; the pool fans out across configurations.
	for n := 8; n <= lines*2; n += 8 {
		prog, err := codegen.SequentialLoop(benchBase, n, 3)
		if err != nil {
			return 0, err
		}
		mite, err := steadyMITE(cfg, prog, capacityWarmup, capacityIters, a)
		if err != nil {
			return 0, fmt.Errorf("%d regions: %w", n, err)
		}
		if mite > 10 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("no knee found up to %d regions", lines*2)
}
