// Package frontend models the fetch engine of one hardware thread: the
// branch-prediction-driven next-fetch logic, the micro-op cache (DSB)
// streaming path, the legacy decode (MITE) path with its switch
// penalty, and the instruction decode queue (IDQ) feeding the backend.
//
// The security-relevant contract implemented here: fetch follows
// *predicted* control flow and fills the micro-op cache as it decodes —
// including along paths that are later squashed. Squash resets fetch
// state but never rolls back micro-op cache contents.
package frontend

import (
	"deaduops/internal/asm"
	"deaduops/internal/bpu"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"
)

// IDQCapacity is the instruction decode queue's capacity in µops.
const IDQCapacity = 64

// Config parameterizes the fetch engine.
type Config struct {
	Decode decode.Config
	// LSDCapacity enables the loop stream detector when nonzero: loops
	// of at most this many µops lock into the IDQ and replay without
	// touching the micro-op cache (§II-C). Zero disables it — the
	// modelled Skylake ships with the LSD fused off (erratum SKL150),
	// which is why the paper never needed to defeat it.
	LSDCapacity int
}

// lsdRec is one fetch group retained for loop detection.
type lsdRec struct {
	entry uint64
	uops  []isa.Uop
}

// FrontEnd is one hardware thread's fetch engine.
type FrontEnd struct {
	cfg    Config
	thread int
	prog   *asm.Program
	uc     *uopcache.Cache
	hier   *mem.Hierarchy
	bp     *bpu.BPU
	ctr    *perfctr.Counters
	memo   *Memo
	// Scalars from the µop cache configuration, captured once so every
	// fetch and DSB cycle reads them without copying a Config. A hit
	// streams one line's slots per cycle.
	regionSize    uint64
	streamWidth   int
	switchPenalty int

	pc        uint64
	active    bool // fetch enabled (false: stalled on fault/halt/serialize)
	serialize bool // CPUID in flight: fetch stops until it retires
	// stallPen counts down DSB-miss-attributed stalls (switch penalty);
	// stallOther counts down unattributed stalls (icache miss fill,
	// misprediction redirect bubble).
	stallPen   int
	stallOther int

	// pending delivery state
	pendingUops  []isa.Uop          // DSB stream awaiting IDQ slots (read-only: the hit trace's µops)
	pendingGroup *fetchGroup        // fetch-control applied once the stream drains
	plan         *decode.RegionPlan // MITE schedule in progress (read-only, memoized)
	planTrace    *uopcache.Trace    // the plan's fill (read-only, memoized)
	planIdx      int
	planGroup    *fetchGroup // group being decoded by MITE (for fill)
	sysRet       []uint64    // syscall return-address stack (architectural)

	// LSD (loop stream detector) state: the current group's delivered
	// µops, recently delivered groups and, when a loop locks, the
	// replaying µop ring.
	delivered []isa.Uop
	lsdLog    []lsdRec
	lsdLoop   []isa.Uop
	lsdIdx    int
	lsdActive bool

	// idq is the instruction decode queue, a ring of idqLen µops
	// starting at idqHead.
	idq     [IDQCapacity]isa.Uop
	idqHead int
	idqLen  int

	// group is the one reusable fetch-group buffer: at most one fetch
	// group is ever live (either pendingGroup on the DSB path or
	// planGroup on the MITE path, never both), so planFetch rebuilds
	// this struct in place instead of allocating per fetch.
	group fetchGroup
}

// New builds a fetch engine for one hardware thread. memo is the
// core's decode memo, shared with the sibling thread's engine; it must
// have been built for cfg.Decode and uc's configuration.
func New(cfg Config, thread int, uc *uopcache.Cache, hier *mem.Hierarchy, bp *bpu.BPU, ctr *perfctr.Counters, memo *Memo) *FrontEnd {
	ucfg := uc.Config()
	if memo.dec != cfg.Decode || memo.uc != ucfg {
		panic("frontend: decode memo built for another configuration")
	}
	return &FrontEnd{
		cfg:           cfg,
		thread:        thread,
		uc:            uc,
		hier:          hier,
		bp:            bp,
		ctr:           ctr,
		memo:          memo,
		regionSize:    ucfg.RegionSize(),
		streamWidth:   ucfg.SlotsPerLine,
		switchPenalty: ucfg.SwitchPenalty,
	}
}

// SetProgram installs the code image, emptying the decode memo if it
// held another image's groups.
func (f *FrontEnd) SetProgram(p *asm.Program) {
	f.prog = p
	f.memo.bind(p)
}

// Program returns the installed code image (checkpointing).
func (f *FrontEnd) Program() *asm.Program { return f.prog }

// Redirect restarts fetch at pc, discarding all pending fetch state.
// The backend calls this at misprediction recovery and at thread start.
func (f *FrontEnd) Redirect(pc uint64) {
	f.pc = pc
	f.active = true
	f.serialize = false
	f.stallPen = 0
	f.stallOther = 0
	f.pendingUops = nil
	f.pendingGroup = nil
	f.plan = nil
	f.planTrace = nil
	f.planIdx = 0
	f.planGroup = nil
	f.delivered = f.delivered[:0]
	f.lsdLog = f.lsdLog[:0]
	f.lsdLoop = nil
	f.lsdIdx = 0
	f.lsdActive = false
	f.idqHead, f.idqLen = 0, 0
}

// Stop halts fetch (thread finished).
func (f *FrontEnd) Stop() { f.active = false }

// AddStall inserts redirect-bubble cycles not attributed to micro-op
// cache misses.
func (f *FrontEnd) AddStall(n int) { f.stallOther += n }

// SerializeDone is signalled by the backend when a fetch-serializing
// instruction (CPUID) retires; fetch resumes at the next address.
func (f *FrontEnd) SerializeDone(resume uint64) {
	f.serialize = false
	f.active = true
	f.pc = resume
	f.pendingUops = nil
	f.pendingGroup = nil
	f.plan = nil
	f.planTrace = nil
	f.planGroup = nil
}

// InMITE reports whether the legacy decode pipeline is active (used to
// arbitrate the shared decoders between SMT threads).
func (f *FrontEnd) InMITE() bool { return f.plan != nil }

// IDQLen returns the number of micro-ops buffered for the backend.
func (f *FrontEnd) IDQLen() int { return f.idqLen }

// Pop removes the oldest micro-op from the IDQ for rename/dispatch,
// or returns nil if the IDQ is empty. The µop stays valid until the
// next Tick or Redirect; the caller copies it into its ROB entry.
func (f *FrontEnd) Pop() *isa.Uop {
	if f.idqLen == 0 {
		return nil
	}
	u := &f.idq[f.idqHead]
	f.idqHead = (f.idqHead + 1) % IDQCapacity
	f.idqLen--
	return u
}

// deliver copies u into the IDQ's next slot, marks the path that
// delivered it and, for a fetched group g, attaches g's branch
// predictions. While the LSD is unlocked it also records the µop for
// loop detection. Every µop reaches the IDQ through here.
func (f *FrontEnd) deliver(u *isa.Uop, path isa.Path, g *fetchGroup) {
	d := &f.idq[(f.idqHead+f.idqLen)%IDQCapacity]
	*d = *u
	d.Path = path
	if g != nil {
		g.annotate(d)
	}
	f.idqLen++
	if f.cfg.LSDCapacity > 0 && !f.lsdActive {
		f.delivered = append(f.delivered, *d)
	}
}

// fetchGroup is one fetch unit of work: the static macro-ops from the
// entry point to the region end or the first control-flow redirect the
// predictor follows.
type fetchGroup struct {
	insts []*isa.Inst
	entry uint64
	// next is where fetch continues after the group.
	next uint64
	// preds records branch-End()-address → predicted (taken, target);
	// consumed when annotating delivered branch micro-ops. A slice, not
	// a map: instruction addresses strictly increase inside a group so
	// entries are unique, groups hold only a handful of branches, and
	// the backing array is reused across fetches.
	preds []predRec
	// halt: group contains HALT — fetch stops after delivery.
	// serialize: group contains CPUID — fetch stops until retire.
	halt      bool
	serialize bool
	// fault: entry address is unmapped; no micro-ops can be delivered.
	fault bool
}

type predOut struct {
	taken  bool
	target uint64
	valid  bool // predictor produced a target (indirect may not)
}

// predRec is one recorded branch prediction, keyed by the branch's
// End() address.
type predRec struct {
	end uint64
	p   predOut
}

// setPred records a prediction for the branch ending at end.
func (g *fetchGroup) setPred(end uint64, p predOut) {
	g.preds = append(g.preds, predRec{end: end, p: p})
}

// planFetch walks static code from pc, consulting the predictors, and
// returns the fetch group. The group never crosses a region boundary
// (micro-op cache traces are per-region) and ends early at the first
// branch the predictor follows.
func (f *FrontEnd) planFetch(pc uint64) *fetchGroup {
	// Reuse the embedded group: at most one fetch group is live at a
	// time (startFetch only runs once the previous group has fully
	// delivered and finished), so rebuilding in place is safe.
	g := &f.group
	g.insts = g.insts[:0]
	g.preds = g.preds[:0]
	g.entry = pc
	g.next = 0
	g.halt, g.serialize, g.fault = false, false, false
	region := f.uc.RegionOf(pc)
	regionEnd := region + f.regionSize
	run := f.prog.From(pc)
	cur := pc
	for cur < regionEnd {
		var in *isa.Inst
		if off := cur - pc; off < uint64(len(run)) {
			in = run[off]
		} else {
			in = f.prog.At(cur)
		}
		if in == nil {
			if len(g.insts) == 0 {
				g.fault = true
			}
			// Unmapped bytes inside a region: stop the group here.
			g.next = cur
			return g
		}
		g.insts = append(g.insts, in)
		switch in.Op {
		case isa.HALT:
			g.halt = true
			g.next = in.End()
			return g
		case isa.CPUID:
			g.serialize = true
			g.next = in.End()
			return g
		case isa.JMP:
			g.setPred(in.End(), predOut{taken: true, target: uint64(in.Imm), valid: true})
			g.next = uint64(in.Imm)
			return g
		case isa.CALL:
			f.bp.PushRSB(in.End())
			g.setPred(in.End(), predOut{taken: true, target: uint64(in.Imm), valid: true})
			g.next = uint64(in.Imm)
			return g
		case isa.JCC:
			taken := f.bp.PredictDirection(in.Addr)
			g.setPred(in.End(), predOut{taken: taken, target: uint64(in.Imm), valid: true})
			if taken {
				g.next = uint64(in.Imm)
				return g
			}
		case isa.JMPI, isa.CALLI:
			t, ok := f.bp.PredictIndirect(in.Addr)
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			if in.Op == isa.CALLI {
				f.bp.PushRSB(in.End())
			}
			if ok {
				g.next = t
			} else {
				// No prediction: fetch stalls until the branch
				// resolves and redirects.
				g.next = 0
			}
			return g
		case isa.RET:
			t, ok := f.bp.PopRSB()
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			if ok {
				g.next = t
			} else {
				g.next = 0
			}
			return g
		case isa.SYSCALL:
			g.setPred(in.End(), predOut{taken: true, target: isa.KernelEntry, valid: true})
			f.sysRet = append(f.sysRet, in.End())
			g.next = isa.KernelEntry
			return g
		case isa.SYSRET:
			t, ok := f.predictSysret()
			g.setPred(in.End(), predOut{taken: true, target: t, valid: ok})
			g.next = t
			if !ok {
				g.next = 0
			}
			return g
		}
		cur = in.End()
	}
	g.next = cur
	return g
}

func (f *FrontEnd) predictSysret() (uint64, bool) {
	if n := len(f.sysRet); n > 0 {
		t := f.sysRet[n-1]
		f.sysRet = f.sysRet[:n-1]
		return t, true
	}
	return 0, false
}

// annotate attaches the group's branch predictions to a delivered
// micro-op.
func (g *fetchGroup) annotate(u *isa.Uop) {
	if !u.IsBranch() {
		return
	}
	end := u.MacroAddr + uint64(u.MacroLen)
	for i := range g.preds {
		if g.preds[i].end == end {
			p := g.preds[i].p
			u.PredTaken = p.taken
			if p.valid {
				u.PredTarget = p.target
			}
			return
		}
	}
}

// groupEnd returns the address one past the last instruction.
func (g *fetchGroup) groupEnd() uint64 {
	if len(g.insts) == 0 {
		return g.entry
	}
	last := g.insts[len(g.insts)-1]
	return last.End()
}

// Tick advances the fetch engine one cycle, delivering micro-ops into
// the IDQ.
func (f *FrontEnd) Tick() {
	if !f.active || f.serialize {
		return
	}
	if f.stallOther > 0 {
		f.stallOther--
		return
	}
	if f.stallPen > 0 {
		f.stallPen--
		f.ctr.Inc(perfctr.DSBMissPenaltyCycles)
		return
	}
	room := IDQCapacity - f.idqLen
	if room <= 0 {
		return
	}

	if f.lsdActive {
		f.tickLSD(room)
		return
	}
	// A MITE plan, once started, delivers until it completes; between
	// plans every fetch probes the µop cache first.
	if f.plan != nil {
		f.tickMITE(room)
	} else {
		f.tickDSB(room)
	}
}

// SkipBound returns how many upcoming cycles of Tick are provably
// dead — pure stall countdowns or no-ops — so the core's event-driven
// fast path can advance the clock over them in one step. ^uint64(0)
// means "idle until some other unit acts" (fetch stopped, serialized,
// or blocked on a full IDQ that only the backend can drain); 0 means
// the next Tick may deliver micro-ops or start a fetch and must run
// for real. Note the DSB→MITE switch itself is never skippable: the
// switch is charged inside startFetch, which SkipBound reports as 0 —
// only the already-charged penalty countdown is fast-forwarded.
func (f *FrontEnd) SkipBound() uint64 {
	if !f.active || f.serialize {
		return ^uint64(0)
	}
	if n := f.stallOther + f.stallPen; n > 0 {
		return uint64(n)
	}
	if f.idqLen >= IDQCapacity {
		return ^uint64(0)
	}
	return 0
}

// ApplySkip replays the counter effects of k skipped cycles, which
// must not exceed the last SkipBound: unattributed stalls drain
// silently first (exactly as Tick would), then DSB-miss-penalty
// stalls drain charging DSBMissPenaltyCycles each, and any remainder
// was pure idling (inactive / serialized / IDQ full) with no effect.
func (f *FrontEnd) ApplySkip(k uint64) {
	n := int(k)
	if f.stallOther > 0 {
		take := f.stallOther
		if take > n {
			take = n
		}
		f.stallOther -= take
		n -= take
	}
	if n > 0 && f.stallPen > 0 {
		take := f.stallPen
		if take > n {
			take = n
		}
		f.stallPen -= take
		n -= take
		f.ctr.Add(perfctr.DSBMissPenaltyCycles, uint64(take))
	}
}

// State is the part of a fetch engine that persists across runs: the
// backend's Reset → Redirect at every run start discards all pending
// fetch state, so the architectural syscall return-address stack is
// the only field a between-runs checkpoint must carry.
type State struct {
	SysRet []uint64
}

// Save deep-copies the persistent fetch state into s, reusing s's
// buffers.
func (f *FrontEnd) Save(s *State) {
	s.SysRet = append(s.SysRet[:0], f.sysRet...)
}

// Restore rehydrates the persistent fetch state from s and parks the
// engine in the quiescent between-runs position (fetch stopped until
// the next Reset redirects it).
func (f *FrontEnd) Restore(s *State) {
	f.Redirect(0)
	f.active = false
	f.sysRet = append(f.sysRet[:0], s.SysRet...)
}

// tickLSD replays the locked loop out of the IDQ, bypassing both the
// micro-op cache and the decoders. Exit happens when the loop's
// closing branch resolves against its recorded prediction and the
// backend redirects fetch.
func (f *FrontEnd) tickLSD(room int) {
	n := f.streamWidth
	if n > room {
		n = room
	}
	for i := 0; i < n; i++ {
		f.deliver(&f.lsdLoop[f.lsdIdx], isa.PathLSD, nil)
		f.lsdIdx = (f.lsdIdx + 1) % len(f.lsdLoop)
	}
	f.ctr.Add(perfctr.LSDUops, uint64(n))
}

// lsdCheck looks for a loop ending at entry in the recorded groups and
// locks it if it fits the LSD. It reports whether the LSD took over.
func (f *FrontEnd) lsdCheck(entry uint64) bool {
	if f.cfg.LSDCapacity <= 0 {
		return false
	}
	for i := range f.lsdLog {
		if f.lsdLog[i].entry != entry {
			continue
		}
		total := 0
		for _, r := range f.lsdLog[i:] {
			total += len(r.uops)
		}
		if total == 0 || total > f.cfg.LSDCapacity {
			return false
		}
		loop := make([]isa.Uop, 0, total)
		for _, r := range f.lsdLog[i:] {
			loop = append(loop, r.uops...)
		}
		f.lsdLoop = loop
		f.lsdIdx = 0
		f.lsdActive = true
		return true
	}
	return false
}

// lsdRecord retains the group entered at entry, whose µops deliver
// has collected, for loop detection.
func (f *FrontEnd) lsdRecord(entry uint64) {
	if f.cfg.LSDCapacity <= 0 || f.lsdActive {
		return
	}
	const maxLog = 16
	f.lsdLog = append(f.lsdLog, lsdRec{entry: entry, uops: append([]isa.Uop(nil), f.delivered...)})
	f.delivered = f.delivered[:0]
	if len(f.lsdLog) > maxLog {
		f.lsdLog = f.lsdLog[len(f.lsdLog)-maxLog:]
	}
}

// tickDSB pushes pending DSB micro-ops up to the stream width. A
// group's fetch-control (redirect target, HALT, CPUID serialization)
// applies only after its last micro-op has been delivered.
func (f *FrontEnd) tickDSB(room int) {
	if len(f.pendingUops) == 0 {
		if g := f.pendingGroup; g != nil {
			f.pendingGroup = nil
			f.finishGroup(g)
			if !f.active || f.serialize {
				return
			}
		}
		if !f.startFetch() {
			return
		}
	}
	if len(f.pendingUops) == 0 {
		return
	}
	n := min(f.streamWidth, room, len(f.pendingUops))
	for i := range n {
		f.deliver(&f.pendingUops[i], isa.PathDSB, f.pendingGroup)
	}
	f.ctr.Add(perfctr.DSBUops, uint64(n))
	f.pendingUops = f.pendingUops[n:]
	if len(f.pendingUops) == 0 {
		if g := f.pendingGroup; g != nil {
			f.pendingGroup = nil
			f.finishGroup(g)
		}
	}
}

// tickMITE advances the legacy-decode schedule by one cycle.
func (f *FrontEnd) tickMITE(room int) {
	if f.planIdx < len(f.plan.Slots) {
		slot := f.plan.Slots[f.planIdx]
		if len(slot) > room {
			// IDQ backpressure: retry this slot next cycle.
			return
		}
		f.planIdx++
		if len(slot) == 0 {
			f.ctr.Inc(perfctr.DSBMissPenaltyCycles)
			return
		}
		for i := range slot {
			u := &slot[i]
			f.deliver(u, u.Path, f.planGroup)
			if u.Path == isa.PathMSROM {
				f.ctr.Inc(perfctr.MSROMUops)
			} else {
				f.ctr.Inc(perfctr.MITEUops)
			}
		}
		if f.planIdx < len(f.plan.Slots) {
			return
		}
	}
	// Plan complete: fill the micro-op cache with the decoded trace
	// and finish the group.
	g := f.planGroup
	f.uc.Fill(f.thread, f.planTrace)
	f.ctr.Add(perfctr.LCPStallCycles, uint64(f.plan.LCPStalls))
	f.ctr.Add(perfctr.JccAlignStallCycles, uint64(f.plan.AlignStalls))
	f.plan = nil
	f.planTrace = nil
	f.planIdx = 0
	f.planGroup = nil
	f.finishGroup(g)
}

// finishGroup records the delivered group for the LSD and applies its
// post-delivery fetch control.
func (f *FrontEnd) finishGroup(g *fetchGroup) {
	f.lsdRecord(g.entry)
	switch {
	case g.halt:
		f.active = false
	case g.serialize:
		f.serialize = true
	case g.next == 0 && len(g.preds) > 0:
		// Unpredicted indirect: stall until backend redirect.
		f.active = false
	default:
		f.pc = g.next
	}
}

// startFetch plans the next fetch group and primes either the DSB
// stream or a MITE plan. It reports whether any work was started.
func (f *FrontEnd) startFetch() bool {
	if f.lsdCheck(f.pc) {
		// The loop stream detector locked a loop ending here: delivery
		// now bypasses both the µop cache and the decoders.
		return true
	}
	g := f.planFetch(f.pc)
	if g.fault {
		// Unmapped fetch target (e.g. wild transient target): stall
		// until redirected.
		f.active = false
		return false
	}
	if len(g.insts) == 0 {
		f.finishGroup(g)
		return false
	}

	// Instruction-cache access for the group's bytes. A miss costs the
	// fill latency up front.
	lat := f.hier.AccessInst(g.entry)
	if lat > mem.L1Latency {
		f.stallOther += lat - mem.L1Latency
		f.ctr.Inc(perfctr.L1IMisses)
	}

	if uops, hit := f.uc.Lookup(f.thread, g.entry); hit {
		if covered := f.coverage(uops); covered >= g.groupEnd() {
			f.pendingUops = f.truncateToGroup(uops, g)
			f.pendingGroup = g
			if len(f.pendingUops) == 0 {
				f.pendingGroup = nil
				f.finishGroup(g)
			}
			return true
		}
		// Trace exists but does not cover this (longer) fetch group —
		// e.g. it was built under a different predicted direction.
		// Treat as a miss and rebuild.
	}

	// DSB miss: the switch penalty, then the MITE schedule.
	f.ctr.Inc(perfctr.DSB2MITESwitches)
	f.stallPen += f.switchPenalty
	d := f.memo.decode(f.prog, g.entry, g.insts)
	f.plan, f.planTrace = d.Plan, d.Trace
	f.planIdx = 0
	f.planGroup = g
	return true
}

// coverage returns the address one past the last macro-op the trace
// micro-ops cover.
func (f *FrontEnd) coverage(uops []isa.Uop) uint64 {
	if len(uops) == 0 {
		return 0
	}
	last := &uops[len(uops)-1]
	return last.MacroAddr + uint64(last.MacroLen)
}

// truncateToGroup cuts a cached trace down to the fetch group's extent
// (the group may end early at a predicted-taken branch). Truncation is
// a re-slice of the trace, not a copy.
func (f *FrontEnd) truncateToGroup(uops []isa.Uop, g *fetchGroup) []isa.Uop {
	end := g.groupEnd()
	for i := range uops {
		if uops[i].MacroAddr >= end {
			return uops[:i]
		}
	}
	return uops
}
