package staticlint

// The leakage quantifier: prices the fetch paths of a secret-dependent
// branch in probe cycles with decode.CostTable, built from the same
// decode and µop cache configurations the cycle-level core runs
// (see Config.Costs). For every
// dsb-footprint-divergence finding the checker attaches a PathCost per
// direction and a headline predicted probe-cycle delta — the number a
// prime+probe receiver measuring the divergent sets would observe.
// The predictions are continuously validated against the simulator by
// internal/staticlint/difftest.

import (
	"encoding/binary"

	"deaduops/internal/backend"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// PathCost is the predicted front-end delivery cost of one fetch path
// (the straight-line over-approximation of a branch successor).
type PathCost struct {
	// Uops is the decoded micro-op count along the path.
	Uops int `json:"uops"`
	// WarmCycles is the predicted delivery cost with every cacheable
	// trace resident in the micro-op cache: the max of the per-segment
	// DSB stream cycles and the backend drain bound, plus full MITE
	// delivery of any uncacheable segments.
	WarmCycles int `json:"warm_cycles"`
	// ColdCycles is the predicted delivery cost with every trace
	// evicted: per segment, one fetch/plan cycle + the DSB→MITE switch
	// penalty + the legacy decode schedule (LCP and predecode stalls
	// included as empty slots, MSROM streaming at its own width).
	ColdCycles int `json:"cold_cycles"`
	// RefillDelta = ColdCycles − WarmCycles: the per-traversal penalty
	// of finding this path's traces evicted — the probe-cycle signal
	// the paper's receiver times.
	RefillDelta int `json:"refill_delta_cycles"`
	// LCPStallCycles and MSROMUops break out the MITE amplifiers
	// (mite-amplifier checker) contributing to ColdCycles.
	LCPStallCycles int `json:"lcp_stall_cycles,omitempty"`
	MSROMUops      int `json:"msrom_uops,omitempty"`
	// UncacheableRegions counts segments the placement rules reject;
	// they are MITE-delivered on every traversal and contribute no
	// hit/miss asymmetry.
	UncacheableRegions int `json:"uncacheable_regions,omitempty"`
	// AlignStallCycles and AlignJccs break out the predecoder stalls
	// charged to conditional jumps straddling a predecode-window
	// boundary (jump-alignment checker) contributing to ColdCycles.
	AlignStallCycles int `json:"align_stall_cycles,omitempty"`
	AlignJccs        int `json:"align_jccs,omitempty"`
	// WarmSwitchPoints counts the DSB→MITE transitions a warm traversal
	// of the path still pays — one per uncacheable segment, since the
	// fetch engine falls back to legacy decode exactly there.
	// ColdSwitchPoints counts the transitions of a fully evicted
	// traversal: one per segment (dsb-mite-switch checker).
	WarmSwitchPoints int `json:"warm_switch_points,omitempty"`
	ColdSwitchPoints int `json:"cold_switch_points,omitempty"`
}

// Costs returns the cost table the quantifier prices with: the
// profile's decode and µop cache configurations — the very values
// cpu.FromProfile hands the simulated core — plus the backend drain
// width (backend.DispatchWidth) and the calibrated
// DefaultDrainLag and DefaultRunOverhead.
func (c Config) Costs() decode.CostTable {
	return decode.CostTable{
		Decode:      c.Decode,
		Cache:       c.UopCache,
		DrainWidth:  backend.DispatchWidth,
		DrainLag:    DefaultDrainLag,
		RunOverhead: DefaultRunOverhead,
	}
}

// CostRanges prices an explicit set of fetch ranges as a path embedded
// in a longer run: the ranges are segmented exactly as the fetch
// engine segments them (uopcache.SegmentRanges), each segment is
// priced by the cost table, and the warm cost is bounded below
// by the backend drain rate across the whole path.
func (a *Analysis) CostRanges(ranges []uopcache.Range) PathCost {
	return a.costRanges(ranges, false)
}

// RunCost prices ranges as one complete program run — the quantity
// internal/staticlint/difftest measures end to end on the simulator.
// Unlike CostRanges — the marginal cost of a path inside a longer run
// — a standalone run pays three things the marginal sums hide:
//
//   - the pipeline-fill lag: the retire stream trails dispatch by the
//     machine's depth, which a drain-bound warm run exposes and a
//     fetch-bound cold run hides inside its delivery schedule
//     (decode.CostTable.DrainLag, via DrainBound);
//   - the delivery/drain race: legacy delivery of dense segments
//     (uncacheable regions of single-byte macro-ops decode at
//     DecodeWidth > the drain width) leaves an IDQ backlog the run
//     retires after the last fetch, and switch bubbles let the
//     backend catch up mid-run — both sides are replayed cycle for
//     cycle by decode.RunRace instead of summed per segment;
//   - the constant run start/stop overhead
//     (decode.CostTable.RunOverhead), identical warm and cold.
func (a *Analysis) RunCost(ranges []uopcache.Range) PathCost {
	return a.costRanges(ranges, true)
}

func (a *Analysis) costRanges(ranges []uopcache.Range, wholeRun bool) PathCost {
	ct := a.Cfg.Costs()
	var pc PathCost
	streamCycles := 0 // warm front-end cycles across cacheable segments
	cacheableUops := 0
	warmRace, coldRace := ct.NewRunRace(), ct.NewRunRace()
	for _, seg := range uopcache.SegmentRanges(a.Cfg.UopCache, a.Prog, ranges) {
		d := a.decode(seg)
		rc, plan := d.cost, d.plan
		pc.Uops += rc.Uops
		pc.LCPStallCycles += rc.LCPStallCycles
		pc.MSROMUops += rc.MSROMUops
		pc.AlignStallCycles += rc.AlignStallCycles
		pc.AlignJccs += rc.AlignJccs
		pc.ColdSwitchPoints++
		if !rc.Cacheable {
			pc.WarmSwitchPoints++
		}
		if !wholeRun {
			pc.ColdCycles += rc.ColdCycles
			if rc.Cacheable {
				streamCycles += rc.WarmCycles
				cacheableUops += rc.Uops
			} else {
				pc.UncacheableRegions++
				pc.WarmCycles += rc.WarmCycles // MITE on every traversal
			}
			continue
		}
		coldRace.MITE(plan)
		if rc.Cacheable {
			warmRace.Stream(rc.Uops)
		} else {
			pc.UncacheableRegions++
			warmRace.MITE(plan)
		}
	}
	if wholeRun {
		// Warm is the slower of the delivery/drain race and the backend
		// drain bound over every micro-op of the run (uncacheable
		// segments drain through the same backend, so they count).
		warm := warmRace.Finish()
		if b := ct.DrainBound(pc.Uops); b > warm {
			warm = b
		}
		pc.WarmCycles = warm + ct.RunOverhead
		pc.ColdCycles = coldRace.Finish() + ct.RunOverhead
	} else {
		drain := ct.DrainCycles(cacheableUops)
		if drain > streamCycles {
			streamCycles = drain
		}
		pc.WarmCycles += streamCycles
	}
	pc.RefillDelta = pc.ColdCycles - pc.WarmCycles
	return pc
}

// decodedSeg is one decoded fetch segment: what
// decode.CostTable.RegionDecode returns for it — its cost, the
// PlanRegion schedule that cost prices, and the BuildTrace trace a
// MITE refill of it installs.
type decodedSeg struct {
	cost  decode.RegionCost
	plan  *decode.RegionPlan
	trace *uopcache.Trace
}

// segMemo is an analysis's one decode path: every footprint
// (footprintOf), path cost (costRanges) and receiver layout
// (probeSetup) decodes its segments through it, and each distinct
// segment content is planned once. It is keyed on content (shapeKey),
// not on address, so the Ways×|div| regions of a receiver chain share
// one decode, and so does code that recurs in a program at the same
// in-region offsets and predecode-window phase. A shared decode
// therefore carries the trace of the first segment with that content:
// its counts, line structure and slot widths hold for every segment
// with the key, its region address and µops do not. Footprints and
// costs read only the former; the receiver, which fills a cache with
// the trace, rebases it onto its own region. The key leaves out the
// decode and cache configuration, so a memo serves one Config — one
// Analysis, or one ProbeModel call.
type segMemo struct {
	ct   decode.CostTable
	segs map[string]decodedSeg
	key  []byte
}

func newSegMemo(cfg Config) *segMemo {
	return &segMemo{ct: cfg.Costs(), segs: make(map[string]decodedSeg)}
}

// planFresh makes every memo plan each segment on its own, as if every
// lookup missed: the reference TestSegmentMemoMatchesFresh holds the
// memo to. Only tests set it.
var planFresh bool

// decode returns sg's decoded segment, planning it on first sight of
// its content.
func (m *segMemo) decode(sg uopcache.Segment) decodedSeg {
	m.key = shapeKey(m.key[:0], sg)
	d, ok := m.segs[string(m.key)]
	if !ok || planFresh {
		d.cost, d.plan, d.trace = m.ct.RegionDecode(sg.Region, sg.Entry, sg.Insts)
		m.segs[string(m.key)] = d
	}
	return d
}

// decode decodes sg through the analysis's segment memo, creating the
// memo on first use.
func (a *Analysis) decode(sg uopcache.Segment) decodedSeg {
	if a.segs == nil {
		a.segs = newSegMemo(a.Cfg)
	}
	return a.segs.decode(sg)
}

// shapeKey appends sg's content key to dst: everything decode.PlanRegion
// and uopcache.BuildTrace read of a segment besides its region address.
// That is the entry offset, the region's phase in the predecode window
// (which, with an instruction's in-region offset, decides whether a
// conditional jump straddles a window and pays the alignment stall:
// Wilde et al., "On Abnormal Execution Timing of Conditional Jump
// Instructions"), and, per instruction, its op, operands (a direct
// branch's target excepted), length, in-region offset and µop count.
func shapeKey(dst []byte, sg uopcache.Segment) []byte {
	phase := sg.Region % decode.PredecodeWindow
	dst = append(dst, sg.Entry)
	dst = binary.AppendUvarint(dst, phase)
	for _, in := range sg.Insts {
		var flags byte
		if in.HasImm {
			flags |= 1
		}
		if in.Imm64 {
			flags |= 2
		}
		if in.LCP {
			flags |= 4
		}
		dst = append(dst, byte(in.Op), byte(in.Dst), byte(in.Src), byte(in.Cond), flags, in.Len)
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
		default:
			dst = binary.AppendVarint(dst, in.Imm)
		}
		dst = binary.AppendUvarint(dst, in.Addr-sg.Region)
		dst = binary.AppendUvarint(dst, uint64(in.Uops()))
	}
	return dst
}

// FetchRanges returns the address ranges of the straight-line fetch
// path from start — sequentially, through direct jumps and calls,
// along the fall-through of conditional branches — bounded by the
// config's PathBudget. A nonzero stop ends the walk when fetch reaches
// that address (exclusive), which lets callers price the shared prefix
// up to a branch separately from its successors.
func (a *Analysis) FetchRanges(start, stop uint64) []uopcache.Range {
	return a.walkPathStop(start, stop, a.Cfg.PathBudget).Ranges
}
