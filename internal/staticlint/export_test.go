package staticlint

import "deaduops/internal/uopcache"

// ProbeModelFullReplay is the receiver model without the forked
// prefix: every direction replays the whole protocol (prime → hit
// probe → prime → victim runs → timed probe) on a cache of its own.
// ProbeModel must return exactly this histogram.
func ProbeModelFullReplay(cfg Config, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	h, rp, err := probeSetup(cfg, div)
	if err != nil {
		return nil, err
	}
	bin := func(fp uopcache.FootprintResult) ProbeBin {
		cache := uopcache.New(cfg.UopCache)
		rp.prefix(cache)
		misses, extra := rp.victimProbe(cache, fp)
		return h.missBin(fp, misses, extra)
	}
	h.setDirections(bin(taken), bin(fall))
	return h, nil
}

// BranchFootprints returns the two successor-path footprints and the
// divergent sets the footprint-divergence checker computes for the
// conditional branch at addr.
func BranchFootprints(a *Analysis, addr uint64) (taken, fall uopcache.FootprintResult, div []int) {
	in := a.Prog.At(addr)
	taken = a.footprintOf(a.walkPath(uint64(in.Imm), a.Cfg.PathBudget))
	fall = a.footprintOf(a.walkPath(in.End(), a.Cfg.PathBudget))
	return taken, fall, divergentSets(taken, fall)
}
