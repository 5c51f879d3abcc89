package staticlint

import (
	"deaduops/internal/asm"
	"deaduops/internal/decode"
	"deaduops/internal/uopcache"
)

// ProbeModelWith is ProbeModel under a protocol of prime priming
// traversals and victimRuns victim runs instead of the defaults.
func ProbeModelWith(cfg Config, prime, victimRuns int, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	return probeModel(cfg, protocol{prime: prime, victimRuns: victimRuns}, taken, fall, div)
}

// ProbeModelFullReplay is the receiver model replayed literally, the
// reference ProbeModelWith is held to: every segment is priced on its
// own with the cost table's Region and uopcache.BuildTrace, and every
// direction replays the whole protocol (prime → hit probe → prime →
// victim runs → timed probe) on a cache of its own, every traversal and
// victim run included. ProbeModelWith — forked prefix, fixed-point
// cut-off, per-shape pricing — must return exactly this histogram for
// the same prime and victimRuns.
func ProbeModelFullReplay(cfg Config, prime, victimRuns int, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	ct := cfg.Costs()
	plan := decode.Macros(cfg.Decode)
	h, rp, err := probeSetup(cfg, protocol{prime: prime, victimRuns: victimRuns}, div, func(sg uopcache.Segment) (decode.RegionCost, *uopcache.Trace) {
		return ct.Region(sg.Region, sg.Entry, sg.Insts),
			uopcache.BuildTrace(cfg.UopCache, sg.Region, sg.Entry, plan(sg.Insts))
	})
	if err != nil {
		return nil, err
	}
	recv := func(cache *uopcache.Cache, n int) (misses, extra int) {
		touch := func(s probeSeg) {
			if !cache.Hit(0, s.addr) {
				misses++
				extra += s.delta
				cache.Fill(0, s.trace)
			}
		}
		for _, s := range rp.head {
			touch(s)
		}
		for i := 0; i < n; i++ {
			for _, s := range rp.trav {
				touch(s)
			}
		}
		for _, s := range rp.halt {
			touch(s)
		}
		return misses, extra
	}
	bin := func(fp uopcache.FootprintResult) ProbeBin {
		cache := uopcache.New(cfg.UopCache)
		recv(cache, prime)
		recv(cache, DefaultProbeIters)
		recv(cache, prime)
		victim := victimSegs(fp)
		for r := 0; r < victimRuns; r++ {
			for _, s := range victim {
				if !cache.Hit(0, s.addr) {
					cache.Fill(0, s.trace)
				}
			}
		}
		misses, extra := recv(cache, DefaultProbeIters)
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

// ScanGadgets returns the transient-window gadget scan the gadget
// checkers report from, for prog analyzed with no secrets.
func ScanGadgets(prog *asm.Program, cfg Config) []GadgetHit {
	return Analyze(prog, Spec{}, cfg).gadgets
}
