package staticlint

import (
	"fmt"
	"sort"

	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// secretBranch is a control transfer whose outcome depends on secret
// taint, with the taint that reaches it. A conditional branch also
// carries its taken and fall-through walks and their prices, which
// every branch checker reads rather than re-deriving.
type secretBranch struct {
	inst                *isa.Inst
	taint               taintSet
	conf                Confidence
	taken, fall         pathInfo
	takenCost, fallCost PathCost
}

// findSecretBranches enumerates, in address order, every conditional
// or indirect control transfer whose predicate (flags) or target
// register carries secret taint at the fixpoint, and walks and prices
// both successor paths of each conditional one.
func (a *Analysis) findSecretBranches() []secretBranch {
	var out []secretBranch
	for bi, b := range a.CFG.Blocks {
		if !a.reached[bi] {
			continue
		}
		st := a.in[bi].clone()
		for _, in := range b.Insts {
			var t taintSet
			switch in.Op {
			case isa.JCC:
				t = st.Flags
			case isa.JMPI, isa.CALLI:
				t = st.Regs[in.Dst&0x0F]
			}
			def, may := a.SecretTaint(t)
			if def|may != 0 {
				conf := May
				if def != 0 {
					conf = Definite
				}
				out = append(out, secretBranch{inst: in, taint: def | may, conf: conf})
			}
			a.step(st, in, nil)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inst.Addr < out[j].inst.Addr })
	for i := range out {
		sb := &out[i]
		if sb.inst.Op != isa.JCC {
			continue
		}
		sb.taken = a.walkPath(uint64(sb.inst.Imm), a.Cfg.PathBudget)
		sb.fall = a.walkPath(sb.inst.End(), a.Cfg.PathBudget)
		sb.takenCost = a.CostRanges(sb.taken.Ranges)
		sb.fallCost = a.CostRanges(sb.fall.Ranges)
	}
	return out
}

// costs returns fresh copies of the branch's two path prices, so no
// two findings share one.
func (sb *secretBranch) costs() (taken, fall *PathCost) {
	t, f := sb.takenCost, sb.fallCost
	return &t, &f
}

// finding starts checker's finding at sb: its address, confidence,
// secret sources and call chain.
func (a *Analysis) finding(checker string, sev Severity, sb secretBranch, msg string) Finding {
	return Finding{
		Checker:   checker,
		Severity:  sev,
		Conf:      sb.conf,
		Addr:      sb.inst.Addr,
		Message:   msg,
		Sources:   a.sourceStrings(sb.taint),
		CallChain: a.callChainTo(sb.inst.Addr),
	}
}

// sourceStrings renders the sources of set for a finding.
func (a *Analysis) sourceStrings(set taintSet) []string {
	var out []string
	for _, s := range a.SourcesOf(set) {
		out = append(out, s.String())
	}
	return out
}

// SecretBranchChecker flags secret-dependent control flow — the
// constant-time violation enabling the paper's attack: the victim's
// fetch footprint becomes a function of the secret.
type SecretBranchChecker struct{}

// Name implements Checker.
func (SecretBranchChecker) Name() string { return "secret-dependent-branch" }

// Check implements Checker.
func (c SecretBranchChecker) Check(a *Analysis) []Finding {
	var out []Finding
	for _, sb := range a.branches {
		kind := "conditional branch"
		if sb.inst.Op == isa.JMPI {
			kind = "indirect jump"
		} else if sb.inst.Op == isa.CALLI {
			kind = "indirect call"
		}
		out = append(out, a.finding(c.Name(), SevError, sb,
			fmt.Sprintf("%s %v depends on secret data (constant-time violation)", kind, sb.inst)))
	}
	return out
}

// pathInfo is the straight-line over-approximation of one successor
// path: the fetch ranges it touches and the macro-ops on it.
type pathInfo struct {
	Ranges []uopcache.Range
	Insts  []*isa.Inst
}

// walkPath follows fetch from start — sequentially, through direct
// jumps, into direct calls and back out through their returns, along
// the fall-through of nested conditional branches — for up to budget
// macro-ops, and returns the address ranges touched. The walk keeps a
// return-address stack so a callee's RET resumes at the call's return
// site, matching the fetch stream the simulator's return predictor
// produces; a RET with an empty stack (the walk started inside the
// callee), indirect control flow, HALT, system crossings, unmapped
// addresses, and revisits end the walk.
func (a *Analysis) walkPath(start uint64, budget int) pathInfo {
	return a.walkPathStop(start, 0, budget)
}

// walkPathStop is walkPath with an optional stop address: a nonzero
// stop ends the walk when fetch reaches it (exclusive), so a caller
// can bound a path at a branch of interest.
func (a *Analysis) walkPathStop(start, stop uint64, budget int) pathInfo {
	var p pathInfo
	visited := make(map[uint64]bool)
	var retStack []uint64
	pc := start
	rangeStart := start
	closeRange := func(end uint64) {
		if end > rangeStart {
			p.Ranges = append(p.Ranges, uopcache.Range{Start: rangeStart, End: end})
		}
	}
	for i := 0; i < budget; i++ {
		if stop != 0 && pc == stop {
			closeRange(pc)
			return p
		}
		in := a.Prog.At(pc)
		if in == nil || visited[pc] {
			closeRange(pc)
			return p
		}
		visited[pc] = true
		p.Insts = append(p.Insts, in)
		switch in.Op {
		case isa.JMP:
			closeRange(in.End())
			pc = uint64(in.Imm)
			rangeStart = pc
		case isa.CALL:
			closeRange(in.End())
			retStack = append(retStack, in.End())
			pc = uint64(in.Imm)
			rangeStart = pc
		case isa.RET:
			closeRange(in.End())
			if len(retStack) == 0 {
				return p
			}
			pc = retStack[len(retStack)-1]
			retStack = retStack[:len(retStack)-1]
			rangeStart = pc
		case isa.JMPI, isa.CALLI:
			// A singleton-resolved indirect transfer continues the walk
			// like its direct counterpart (the simulator's indirect
			// predictor converges on the one target after training). A
			// multi-target or unresolved site still ends the walk: the
			// straight-line path model has no single successor to follow.
			// A CALLI/JMPI always ends its block.
			if ts := a.resolved[a.CFG.BlockOf(in.Addr).Index]; len(ts) == 1 {
				closeRange(in.End())
				if in.Op == isa.CALLI {
					retStack = append(retStack, in.End())
				}
				pc = ts[0]
				rangeStart = pc
				continue
			}
			closeRange(in.End())
			return p
		case isa.HALT, isa.SYSCALL, isa.SYSRET:
			closeRange(in.End())
			return p
		default:
			pc = in.End()
		}
	}
	closeRange(pc)
	return p
}

// footprintOf folds the decoded segments of ranges, segmented as the
// fetch engine segments them, into their micro-op cache footprint:
// each cacheable (region, entry) trace charges its lines to the
// region's set, counted once even if the ranges revisit it.
func (a *Analysis) footprintOf(ranges []uopcache.Range) uopcache.FootprintResult {
	uc := a.Cfg.UopCache
	res := uopcache.FootprintResult{Sets: make(map[int]int)}
	for _, sg := range uopcache.SegmentRanges(uc, a.Prog, ranges) {
		t := a.decode(sg).trace
		rf := uopcache.RegionFootprint{Region: sg.Region, Entry: sg.Entry,
			Set: uc.SetIndexOf(sg.Region), Cacheable: t.Cacheable, Reason: t.Reason}
		if t.Cacheable {
			rf.Ways, rf.Uops = len(t.Lines), len(t.Uops)
			res.Sets[rf.Set] += rf.Ways
		} else {
			res.Uncacheable++
		}
		res.Regions = append(res.Regions, rf)
	}
	return res
}

// occupancyList converts a footprint's set map to a slice sorted by
// set.
func occupancyList(f uopcache.FootprintResult) []SetOccupancy {
	var out []SetOccupancy
	for s, w := range f.Sets {
		out = append(out, SetOccupancy{Set: s, Ways: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Set < out[j].Set })
	return out
}

// divergentSets lists the sets whose way occupancy differs between two
// footprints, ascending.
func divergentSets(x, y uopcache.FootprintResult) []int {
	seen := make(map[int]bool)
	var out []int
	for s, w := range x.Sets {
		if y.Sets[s] != w && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for s, w := range y.Sets {
		if x.Sets[s] != w && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// FootprintDivergenceChecker flags secret-dependent conditional
// branches whose two successor paths occupy different micro-op cache
// sets/ways under the placement rules — the condition that makes the
// secret observable through the paper's prime+probe timing contract
// (§IV): an attacker probing the divergent sets sees which path the
// victim fetched.
type FootprintDivergenceChecker struct{}

// Name implements Checker.
func (FootprintDivergenceChecker) Name() string { return "dsb-footprint-divergence" }

// Check implements Checker.
func (c FootprintDivergenceChecker) Check(a *Analysis) []Finding {
	// With the DSB disabled every region is MITE-delivered on both
	// paths — there is no set occupancy for an attacker to probe, so
	// the channel this checker prices vanishes by construction.
	if a.Cfg.UopCache.Disabled {
		return nil
	}
	var out []Finding
	for _, sb := range a.branches {
		if sb.inst.Op != isa.JCC {
			continue
		}
		taken := a.footprintOf(sb.taken.Ranges)
		fall := a.footprintOf(sb.fall.Ranges)
		div := divergentSets(taken, fall)
		if len(div) == 0 && taken.Uncacheable == fall.Uncacheable {
			continue
		}

		// Quantify: the signed headline delta is the difference between
		// the directions' refill penalties — what a receiver probing
		// the divergent sets observes as the victim-side asymmetry.
		takenCost, fallCost := sb.costs()
		delta := takenCost.RefillDelta - fallCost.RefillDelta

		msg := fmt.Sprintf(
			"secret-dependent branch %v: successor paths have divergent µop-cache footprints (%d set(s) differ)",
			sb.inst, len(div))
		if taken.Uncacheable != fall.Uncacheable {
			msg += fmt.Sprintf("; uncacheable regions differ (%d vs %d, MITE-delivered)",
				taken.Uncacheable, fall.Uncacheable)
		}
		msg += fmt.Sprintf("; predicted refill taken +%dc vs fallthrough +%dc (probe delta %+dc)",
			takenCost.RefillDelta, fallCost.RefillDelta, delta)

		// Receiver model: predict the prime/probe timing histogram an
		// attacker measuring the divergent sets would collect. A model
		// failure (e.g. no free set for the receiver's loop tail)
		// degrades the finding, not the run.
		probe, perr := probeModel(a.Cfg, defaultProtocol, a.decode, taken, fall, div)
		if perr == nil {
			msg += fmt.Sprintf("; attacker probe separation %.2f× (floor %.2f×)",
				probe.SeparationMargin, probe.SeparationFloor)
		}
		f := a.finding(c.Name(), SevError, sb, msg)
		f.TakenFootprint = occupancyList(taken)
		f.FallFootprint = occupancyList(fall)
		f.DivergentSets = div
		f.TakenCost, f.FallCost = takenCost, fallCost
		f.ProbeDeltaCycles = delta
		f.Probe = probe
		out = append(out, f)
	}
	return out
}

// MITEAmplifierChecker flags LCP-stall-bearing and microcoded (MSROM)
// instructions on secret-dependent paths. Both force or lengthen
// legacy-decode delivery, widening the cycle delta between the
// DSB-hit and DSB-miss outcomes the attacker times (the paper's
// tiger/zebra microbenchmarks pad with LCP instructions for exactly
// this reason).
type MITEAmplifierChecker struct{}

// Name implements Checker.
func (MITEAmplifierChecker) Name() string { return "mite-amplifier" }

// Check implements Checker.
func (c MITEAmplifierChecker) Check(a *Analysis) []Finding {
	var out []Finding
	for _, sb := range a.branches {
		if sb.inst.Op != isa.JCC {
			continue
		}
		for _, dir := range []struct {
			name string
			path pathInfo
		}{
			{"taken", sb.taken},
			{"fallthrough", sb.fall},
		} {
			lcp, msrom := 0, 0
			var first *isa.Inst
			for _, in := range dir.path.Insts {
				if in.LCP || in.Microcoded() {
					if first == nil {
						first = in
					}
					if in.LCP {
						lcp++
					}
					if in.Microcoded() {
						msrom++
					}
				}
			}
			if lcp+msrom == 0 {
				continue
			}
			out = append(out, a.finding(c.Name(), SevWarning, sb, fmt.Sprintf(
				"%s path of secret-dependent branch %v carries %d LCP and %d MSROM instruction(s) (first at %#x): decode-latency amplifiers widen the measurable delta",
				dir.name, sb.inst, lcp, msrom, first.Addr)))
		}
	}
	return out
}
