package decode

import (
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// CostTable is the static leakage quantifier's (internal/staticlint)
// price list for front-end delivery. Its Decode and Cache halves are
// the very configurations the simulated core runs (cpu.FromProfile
// hands the same profile values to the fetch engine), and its drain
// terms come from the backend's dispatch width plus two calibrated
// constants, so the analyzer and the simulator price a fetch from one
// set of numbers — the contract the differential harness
// (internal/staticlint/difftest) continuously re-checks.
type CostTable struct {
	// Decode supplies the legacy-pipeline schedule's per-part widths
	// and alignment penalty.
	Decode Config
	// Cache supplies the line width a hit streams per cycle and the
	// DSB→MITE switch penalty.
	Cache uopcache.Config
	// DrainWidth caps sustained micro-op consumption at the backend's
	// dispatch width: a DSB stream wider than the backend drains only
	// fills the IDQ, so steady-state warm delivery is drain-bound.
	DrainWidth int
	// DrainLag is the pipeline-depth surcharge a drain-bound run pays:
	// the retire stream trails dispatch by the machine's fill depth, so
	// a warm run whose critical path is the backend ends that many
	// cycles after the drain bound alone predicts. A fetch-bound (cold)
	// run hides the same depth inside its delivery schedule, so the lag
	// appears only on the warm side of a refill delta. The value is
	// calibrated against the cycle-level pipeline and continuously
	// re-validated by internal/staticlint/difftest.
	DrainLag int
	// RunOverhead is the constant start/stop cost of one complete run
	// on the modelled core: the first fetch's spin-up plus the final
	// HALT's retire, cycles a pure delivery schedule omits. It appears
	// identically on the warm and cold sides of a run, so it cancels
	// out of every refill delta; whole-run pricing adds it so absolute
	// predicted run cycles line up with what the simulator's cycle
	// counter reports. Calibrated against internal/cpu and continuously
	// re-validated by internal/staticlint/difftest.
	RunOverhead int
}

// RegionCost prices one fetch segment — the macro-ops of a single
// (region, entry) micro-op cache trace.
type RegionCost struct {
	// Uops is the decoded micro-op count of the segment.
	Uops int
	// ColdCycles is the front-end cost of fetching the segment with its
	// trace absent from the micro-op cache: one fetch cycle to probe
	// the DSB and plan the legacy schedule, the DSB→MITE switch
	// penalty, then one cycle per schedule slot (predecode and LCP
	// stalls appear as empty slots).
	ColdCycles int
	// WarmCycles is the front-end cost of streaming the segment's trace
	// out of the micro-op cache (one line's slots per cycle). For an
	// uncacheable segment it equals ColdCycles: MITE delivers it on
	// every traversal.
	WarmCycles int
	// LCPStallCycles and MSROMUops break out the MITE amplifiers
	// contributing to ColdCycles.
	LCPStallCycles int
	MSROMUops      int
	// AlignStallCycles breaks out the predecoder stalls charged to
	// conditional jumps straddling a predecode-window boundary
	// (Config.JccAlignPenalty); AlignJccs counts those jumps. Like LCP
	// stalls they are paid only under legacy decode, so a
	// secret-dependent difference in jump alignment widens the
	// hit/miss asymmetry a receiver times.
	AlignStallCycles int
	AlignJccs        int
	// Cacheable is false when the placement rules reject the region
	// (Reason says why); such a segment has no hit/miss asymmetry.
	Cacheable bool
	Reason    string
}

// RefillDelta is the per-traversal probe-cycle penalty of finding this
// segment's trace evicted: the quantity a prime+probe receiver times.
func (c RegionCost) RefillDelta() int { return c.ColdCycles - c.WarmCycles }

// RegionDecode prices the fetch segment insts entered at region+entry
// and returns what a MITE refill of it builds: the PlanRegion schedule
// it prices — the very object the simulator executes slot by slot on a
// miss, so the cold cost is the modelled miss cost, not an
// approximation of it — and the trace it installs, the
// uopcache.BuildTrace of the same plan.
func (t CostTable) RegionDecode(region uint64, entry uint8, insts []*isa.Inst) (RegionCost, *RegionPlan, *uopcache.Trace) {
	plan := PlanRegion(t.Decode, insts)
	tr := uopcache.BuildTrace(t.Cache, region, entry, plan.Macros)
	c := RegionCost{
		Uops:             plan.TotalUops(),
		ColdCycles:       1 + t.Cache.SwitchPenalty + plan.Cycles(),
		LCPStallCycles:   plan.LCPStalls,
		MSROMUops:        plan.MSROMUops,
		AlignStallCycles: plan.AlignStalls,
		AlignJccs:        plan.AlignJccs,
		Cacheable:        tr.Cacheable,
		Reason:           tr.Reason,
	}
	if c.Cacheable {
		c.WarmCycles = t.StreamCycles(c.Uops)
	} else {
		c.WarmCycles = c.ColdCycles
	}
	return c, plan, tr
}

// StreamCycles returns the cycles the DSB needs to deliver uops µops
// of one trace (delivery starts the same cycle the lookup hits).
func (t CostTable) StreamCycles(uops int) int {
	return ceilDiv(uops, t.Cache.SlotsPerLine)
}

// DrainCycles returns the backend-side lower bound on consuming uops
// µops. Over a multi-segment path the warm front end is bursty but the
// backend drains steadily, so the path's warm cost is the max of the
// summed stream cycles and this bound.
func (t CostTable) DrainCycles(uops int) int {
	return ceilDiv(uops, t.DrainWidth)
}

// DrainBound returns the full backend-side lower bound on a warm path
// of uops µops: the drain cycles plus the pipeline-fill lag.
func (t CostTable) DrainBound(uops int) int {
	return t.DrainCycles(uops) + t.DrainLag
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}

// RunRace models the per-cycle race between front-end delivery and
// the backend drain across one complete run. The per-segment sums
// above are exact while delivery never outruns the drain width, but a
// run containing dense legacy-delivered stretches — e.g. uncacheable
// regions of single-byte macro-ops, decoded at DecodeWidth micro-ops
// per cycle against a narrower drain — leaves micro-ops queued in the
// IDQ when delivery ends, and the run retires that backlog after the
// last fetch: a tail no per-segment sum can see. RunRace replays the
// delivery schedule cycle for cycle against a DrainWidth-wide
// consumer, so the tail (and any mid-run catch-up during switch
// bubbles) is priced exactly.
type RunRace struct {
	t      CostTable
	queue  int
	cycles int
}

// NewRunRace starts a race priced with t's widths.
func (t CostTable) NewRunRace() *RunRace { return &RunRace{t: t} }

// step advances one cycle delivering n micro-ops into the queue and
// draining up to the drain width out of it.
func (r *RunRace) step(n int) {
	r.cycles++
	r.queue += n
	d := r.t.DrainWidth
	if d > r.queue {
		d = r.queue
	}
	r.queue -= d
}

// Stream delivers one resident trace of uops micro-ops out of the
// micro-op cache, one line's slots per cycle. A hit costs no bubble:
// delivery starts on the probe cycle itself.
func (r *RunRace) Stream(uops int) {
	for uops > 0 {
		n := r.t.Cache.SlotsPerLine
		if n > uops {
			n = uops
		}
		r.step(n)
		uops -= n
	}
}

// MITE prices one legacy-delivered segment: the DSB probe cycle, the
// switch-penalty stall, then the plan's slot schedule cycle for cycle
// (predecode and LCP stalls are its empty slots).
func (r *RunRace) MITE(plan *RegionPlan) {
	r.step(0)
	for i := 0; i < r.t.Cache.SwitchPenalty; i++ {
		r.step(0)
	}
	for _, slot := range plan.Slots {
		r.step(len(slot))
	}
}

// Finish drains the remaining queue and returns the run's total
// front-end-plus-drain cycles.
func (r *RunRace) Finish() int {
	for r.queue > 0 {
		r.step(0)
	}
	return r.cycles
}
