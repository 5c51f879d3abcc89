package staticlint

import (
	"deaduops/internal/asm"
	"deaduops/internal/uopcache"
)

// ProbeModelWith is ProbeModel under a protocol of prime priming
// traversals and victimRuns victim runs instead of the defaults.
func ProbeModelWith(cfg Config, prime, victimRuns int, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	return probeModel(cfg, protocol{prime: prime, victimRuns: victimRuns}, newSegMemo(cfg).decode, taken, fall, div)
}

// ProbeModelFullReplay is the receiver model replayed literally, the
// reference ProbeModelWith is held to: every segment is planned on its
// own with the cost table's RegionDecode, and every
// direction replays the whole protocol (prime → hit probe → prime →
// victim runs → timed probe) on a cache of its own, every traversal and
// victim run included. ProbeModelWith — forked prefix, fixed-point
// cut-off, segment memo — must return exactly this histogram for
// the same prime and victimRuns.
func ProbeModelFullReplay(cfg Config, prime, victimRuns int, taken, fall uopcache.FootprintResult, div []int) (*ProbeHistogram, error) {
	ct := cfg.Costs()
	h, rp, err := probeSetup(cfg, protocol{prime: prime, victimRuns: victimRuns}, div, func(sg uopcache.Segment) (d decodedSeg) {
		d.cost, d.plan, d.trace = ct.RegionDecode(sg.Region, sg.Entry, sg.Insts)
		return d
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
	taken = a.footprintOf(a.walkPath(uint64(in.Imm), a.Cfg.PathBudget).Ranges)
	fall = a.footprintOf(a.walkPath(in.End(), a.Cfg.PathBudget).Ranges)
	return taken, fall, divergentSets(taken, fall)
}

// Footprint returns the analyzer's micro-op cache footprint of ranges
// of prog under cfg: the fold over the ranges' decoded segments the
// footprint-divergence checker compares.
func Footprint(cfg Config, prog *asm.Program, ranges ...uopcache.Range) uopcache.FootprintResult {
	return (&Analysis{Prog: prog, Cfg: cfg}).footprintOf(ranges)
}

// PlanFresh makes every analysis plan each fetch segment on its own
// instead of through its segment memo until the returned func restores
// the memo.
func PlanFresh() (restore func()) {
	planFresh = true
	return func() { planFresh = false }
}

// ScanGadgets returns the transient-window gadget scan the gadget
// checkers report from, for prog analyzed with no secrets.
func ScanGadgets(prog *asm.Program, cfg Config) []GadgetHit {
	return Analyze(prog, Spec{}, cfg).gadgets
}
