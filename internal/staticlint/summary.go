package staticlint

import (
	"slices"

	"deaduops/internal/isa"
)

// Function taint summaries: each function is analyzed once against a
// symbolic input state — placeholder taint sources standing for "the
// caller's value of register r / flags / unresolved-store channel" and
// a symbolic stack pointer — and the resulting exit state is a transfer
// function callers apply at every call site. Substituting the caller's
// actual taint for the placeholders yields the post-call state: taint
// the callee propagates survives, taint it kills (overwrites, zeroing
// idioms) dies, constants it produces propagate, and its stack traffic
// is rebased onto the caller's stack pointer. Summaries are computed
// bottom-up over the call graph's SCCs; recursion iterates to a
// fixpoint from an optimistic bottom, and anything the engine cannot
// see through — indirect calls, kernel crossings, indirect jumps out of
// a body, placeholder-table saturation — degrades to a conservative
// havoc summary that smears all live taint everywhere.

const (
	// summaryStackBase is the symbolic stack-pointer value a summary
	// computation starts from. It sits far outside any guest address a
	// victim program uses, so stack-relative cells tracked during the
	// summary cannot collide with real data addresses; at apply time,
	// cells inside the window around it are rebased onto the caller's
	// concrete stack pointer.
	summaryStackBase uint64 = 1 << 60
	// summaryStackWindow bounds the recognized stack-relative offsets.
	summaryStackWindow uint64 = 1 << 20

	// maxSummaryIters bounds the per-SCC fixpoint iteration; exceeding
	// it degrades the whole component to havoc.
	maxSummaryIters = 10
)

// inSummaryStack reports whether addr is a symbolic stack-relative
// address minted during summary computation.
func inSummaryStack(addr uint64) bool {
	return addr-(summaryStackBase-summaryStackWindow) < 2*summaryStackWindow
}

// calleeFreshCell reports whether an untracked symbolic-stack address
// is provably clean during summary computation. The callee enters with
// SP = summaryStackBase and the CALL-pushed return address (a clean
// code address) at [SP]; everything it allocates lives strictly below.
// So cells below summaryStackBase+8 that were never written are fresh
// stack or the return-address slot. Addresses at summaryStackBase+8
// and above belong to the CALLER's frame — they can hold caller data
// (spills, arguments), so an untracked read there must carry the
// paramMem placeholder, not read as clean.
func calleeFreshCell(addr uint64) bool {
	return inSummaryStack(addr) && addr < summaryStackBase+8
}

// summary is one function's transfer function.
type summary struct {
	// havoc: the callee's effect is unknown; the caller must assume any
	// live taint can reach any register, the flags, and memory.
	havoc bool
	// noReturn: no RET/SYSRET is reachable from the entry; the call
	// never resumes at its return site.
	noReturn bool
	// out is the exit state over the placeholder inputs (join of all
	// reachable return-block exit states).
	out *State
	// writes is the register-clobber mask (bit r = the callee or its
	// transitive callees may write register r), used to decide whether
	// a caller constant survives the call.
	writes uint32
}

var havocSummary = summary{havoc: true}

// allocParams mints the placeholder sources summaries are computed
// over. When the source table would saturate (shared bit 63 can no
// longer distinguish placeholders from real secrets), summaries are
// disabled and every call degrades to havoc — sound, just imprecise.
func (a *Analysis) allocParams() {
	if len(a.sources)+isa.NumRegs+2 > saturationBit {
		a.paramsOK = false
		return
	}
	for r := 0; r < isa.NumRegs; r++ {
		bit := a.addSource(Source{Kind: SrcParamReg, Reg: isa.Reg(r)})
		a.paramReg[r] = bit
		a.paramMask |= bit
	}
	a.paramFlags = a.addSource(Source{Kind: SrcParamFlags})
	a.paramMem = a.addSource(Source{Kind: SrcParamMem})
	a.paramMask |= a.paramFlags | a.paramMem
	a.paramsOK = true
}

// paramState is the symbolic input state a summary computation starts
// from: every register carries its own placeholder bit, flags and the
// unresolved-store channel theirs, and the stack pointer is pinned to
// the symbolic base so stack spills resolve.
func (a *Analysis) paramState() *State {
	st := &State{}
	for r := 0; r < isa.NumRegs; r++ {
		st.Regs[r] = a.paramReg[r]
	}
	st.Flags = a.paramFlags
	st.UnknownStore = a.paramMem
	st.Const[15] = constVal{known: true, v: int64(summaryStackBase)}
	return st
}

// summaryOf returns the summary for a direct call target, degrading to
// havoc for targets outside the computed set (unmapped addresses,
// mid-function calls the partitioner did not see).
func (a *Analysis) summaryOf(target uint64) *summary {
	if fi, ok := a.funcAt(target); ok {
		return a.summaries[fi]
	}
	return &havocSummary
}

// computeSummaries walks the call-graph SCCs bottom-up, computing each
// function's summary with all its callees' summaries available.
// Singleton components are summarized once; cyclic components iterate
// from an optimistic bottom (the empty transfer) until the members'
// summaries stop changing, degrading to havoc if maxSummaryIters does
// not suffice (the lattice is finite, so this indicates pathological
// growth, not nontermination).
func (a *Analysis) computeSummaries() {
	a.summaries = make([]*summary, len(a.funcs))
	if !a.paramsOK {
		for fi := range a.summaries {
			a.summaries[fi] = &havocSummary
		}
		return
	}
	a.funcWrites = a.computeWrites()
	a.inSummary = true
	defer func() { a.inSummary = false }()
	// Content-addressed summary reuse (cache.go): funcKey accumulates
	// each function's key as its SCC is processed bottom-up, so caller
	// components can fold their callees' keys in. A cached component is
	// installed without re-running its fixpoint; a missing one computes
	// exactly as below and is stored for the next analysis.
	var (
		specFP, cfgFP cacheKey
		funcKey       []cacheKey
	)
	if a.cache != nil {
		specFP = specFingerprint(a.Spec)
		cfgFP = configFingerprint(a.Cfg, false)
		funcKey = make([]cacheKey, len(a.funcs))
	}
	for _, scc := range a.callSCCs() {
		var keys []cacheKey
		if a.cache != nil {
			keys = a.sccKeys(scc, specFP, cfgFP, funcKey)
			if sums, ok := a.cache.getSummaries(keys); ok {
				for i, fi := range scc {
					a.summaries[fi] = sums[i]
				}
				continue
			}
		}
		if len(scc) == 1 && !a.selfCalls(scc[0]) {
			a.summaries[scc[0]] = a.summarize(scc[0])
		} else {
			for _, fi := range scc {
				a.summaries[fi] = a.bottomSummary(fi)
			}
			converged := false
			for iter := 0; iter < maxSummaryIters && !converged; iter++ {
				converged = true
				for _, fi := range scc {
					if s, changed := a.joinSummary(a.summaries[fi], a.summarize(fi)); changed {
						a.summaries[fi] = s
						converged = false
					}
				}
			}
			if !converged {
				for _, fi := range scc {
					a.summaries[fi] = &havocSummary
				}
			}
		}
		if a.cache != nil {
			sums := make([]*summary, len(scc))
			for i, fi := range scc {
				sums[i] = a.summaries[fi]
			}
			a.cache.putSummaries(keys, sums)
		}
	}
}

// bottomSummary is the optimistic starting point for recursive summary
// iteration: the lattice bottom — no taint propagates at all, with a
// balanced stack. It must NOT be the identity transfer: each iteration
// joins the fresh estimate with the previous one, and join unions
// taint, so an identity floor would pin every input bit in the result
// forever and a kill inside the cycle could never take effect.
// Summarize's transfer is monotone in the summary map, so iterating up
// from empty converges to the least fixpoint.
func (a *Analysis) bottomSummary(fi int) *summary {
	st := &State{}
	st.Const[15] = constVal{known: true, v: int64(summaryStackBase) + 8}
	return &summary{out: st, writes: a.funcWrites[fi]}
}

// summarize runs the dataflow over one function body from the symbolic
// input state and joins the exit states of all reachable return
// blocks. Callees are applied through their current summaries, so SCC
// iteration sees progressively better estimates.
func (a *Analysis) summarize(fi int) *summary {
	f := a.funcs[fi]
	if f.hasIndirectJump {
		// Control can leave the body through a JMPI the engine cannot
		// follow; nothing sound can be said about the exit state.
		return &havocSummary
	}
	in, reached, capped := fixpoint(a.CFG, taintFlow{a: a, restrict: f.Blocks}, []int{f.EntryBlock}, a.paramState)
	if capped {
		// A truncated fixpoint under-approximates the transfer and would
		// be applied at every call site, amplifying the gap; honor the
		// degrade-to-havoc contract instead.
		return &havocSummary
	}
	var exit *State
	for _, bi := range f.Blocks {
		if !reached[bi] {
			continue
		}
		blk := a.CFG.Blocks[bi]
		if op := blk.Last().Op; op != isa.RET && op != isa.SYSRET {
			continue
		}
		st := in[bi].clone()
		for _, inst := range blk.Insts {
			a.step(st, inst, nil)
		}
		if exit == nil {
			exit = st
		} else {
			a.joinInto(exit, st)
		}
	}
	if exit == nil {
		return &summary{noReturn: true}
	}
	// Drop the callee's own dead stack frame: cells below the final
	// (balanced) stack pointer were pushed and popped inside the call —
	// return-address slots, spills of nested calls — and are not part of
	// the transfer function. Keeping them would also prevent recursive
	// SCCs from converging: every iteration would rebase the previous
	// level's frame one slot deeper, growing the cell set forever.
	if sp := exit.Const[15]; sp.known {
		lo := summaryStackBase - summaryStackWindow
		if hi := min(uint64(sp.v), summaryStackBase+summaryStackWindow); hi > lo {
			exit.Mem.killRange(lo, hi-1, 0, false)
		}
	}
	return &summary{out: exit, writes: a.funcWrites[fi]}
}

// joinSummary merges two summary estimates (SCC iteration) and reports
// whether the result differs from x. It joins into a copy of x.out: a
// built summary is never written, as cached ones are shared.
func (a *Analysis) joinSummary(x, y *summary) (*summary, bool) {
	if x.havoc || y.havoc {
		return &havocSummary, !x.havoc
	}
	out := &summary{writes: x.writes | y.writes, noReturn: x.noReturn && y.noReturn}
	changed := out.writes != x.writes || out.noReturn != x.noReturn
	switch {
	case x.out == nil:
		out.out = y.out
		changed = changed || y.out != nil
	case y.out == nil:
		out.out = x.out
	default:
		out.out = x.out.clone()
		changed = a.joinInto(out.out, y.out) || changed
	}
	return out, changed
}

// computeWrites derives each function's syntactic register-clobber
// mask and closes it over the call graph: a caller inherits its
// callees' clobbers, indirect calls clobber everything.
func (a *Analysis) computeWrites() []uint32 {
	const allRegs = (1 << isa.NumRegs) - 1
	w := make([]uint32, len(a.funcs))
	for fi, f := range a.funcs {
		for _, bi := range f.Blocks {
			for _, in := range a.CFG.Blocks[bi].Insts {
				w[fi] |= directWrites(in)
			}
		}
		if f.hasIndirectJump {
			w[fi] = allRegs
		}
	}
	for changed := true; changed; {
		changed = false
		for fi, f := range a.funcs {
			for _, cs := range f.Calls {
				add := uint32(allRegs)
				if tgts := cs.callees(); tgts != nil {
					// Known callee set (direct, or resolved indirect): the
					// union of the members' clobbers — unless any member
					// escapes the function partition.
					add = 0
					for _, t := range tgts {
						if j, ok := a.funcAt(t); ok {
							add |= w[j]
						} else {
							add = allRegs
							break
						}
					}
				}
				if w[fi]|add != w[fi] {
					w[fi] |= add
					changed = true
				}
			}
		}
	}
	return w
}

// directWrites returns the register-clobber mask of one instruction.
func directWrites(in *isa.Inst) uint32 {
	switch in.Op {
	case isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.LOAD, isa.LOADB, isa.RDTSC:
		return 1 << (in.Dst & 0x0F)
	case isa.CALL, isa.CALLI, isa.RET:
		return 1 << 15 // stack pointer
	}
	return 0
}

// taintFlow is the taint dataflow: restrict (when non-nil) confines
// propagation to one function's body, the ascending block indices of
// Func.Blocks, and followCalls enters EdgeCall
// successors (the whole-program pass analyzes callee bodies in real
// calling contexts; summary computation applies summaries instead).
type taintFlow struct {
	a           *Analysis
	restrict    []int
	followCalls bool
}

func (f taintFlow) copy(dst, src *State) *State  { return src.copyTo(dst) }
func (f taintFlow) step(st *State, in *isa.Inst) { f.a.step(st, in, nil) }
func (f taintFlow) join(dst, src *State) bool    { return f.a.joinInto(dst, src) }

// edge computes the state flowing along one CFG edge from a block
// whose instructions have already been stepped (out is the block exit
// state, call push included). The interesting case is the fall-through
// after a call: it receives the callee's summarized effect, not the
// raw pre-call state — a nil return prunes the edge (noReturn callee).
func (f taintFlow) edge(b *Block, e Edge, out *State) *State {
	a := f.a
	switch _, member := slices.BinarySearch(f.restrict, e.To); {
	case f.restrict != nil && !member, e.Kind == EdgeCall && !f.followCalls:
		return nil
	case e.Kind != EdgeFallThrough:
		return out
	}
	switch last := b.Last(); last.Op {
	case isa.CALL:
		sum := a.summaryOf(uint64(last.Imm))
		if sum.noReturn {
			return nil
		}
		return a.applySummary(out, sum)
	case isa.CALLI:
		// A resolved indirect call applies the join of every target's
		// summary at the return site — any callee in the complete set
		// may have run. An unresolved site keeps the havoc contract.
		if ts := a.resolved[b.Index]; len(ts) > 0 {
			var post *State
			for _, t := range ts {
				sum := a.summaryOf(t)
				if sum.noReturn {
					continue
				}
				s := a.applySummary(out, sum)
				if post == nil {
					post = s
				} else {
					a.joinInto(post, s)
				}
			}
			return post // nil when every target is noReturn
		}
		return a.havocState(out)
	case isa.SYSCALL:
		// Kernel crossing: the callee is never statically known.
		return a.havocState(out)
	}
	return out
}

// applySummary composes a callee summary with the caller's state at
// the call (pre = the state after stepping the CALL, i.e. with the
// return-address push applied — exactly what the callee sees on
// entry). Placeholder bits substitute to the caller's actual taint;
// stack-relative cells and constants rebase onto the caller's stack
// pointer; registers the callee never writes keep their constants.
func (a *Analysis) applySummary(pre *State, sum *summary) *State {
	if sum.havoc {
		return a.havocState(pre)
	}
	out := sum.out
	// subst replaces placeholder bits with the caller's actuals.
	memIn := pre.UnknownStore | pre.memUnion()
	subst := func(set taintSet) taintSet {
		t := set &^ a.paramMask
		for r := 0; r < isa.NumRegs; r++ {
			if set&a.paramReg[r] != 0 {
				t |= pre.Regs[r]
			}
		}
		if set&a.paramFlags != 0 {
			t |= pre.Flags
		}
		if set&a.paramMem != 0 {
			t |= memIn
		}
		return t
	}
	// transConst rebases a callee constant: symbolic-stack values become
	// caller-stack values when the caller's SP is known; other constants
	// pass through.
	spc := pre.Const[15]
	transConst := func(c constVal) constVal {
		if !c.known {
			return constVal{}
		}
		if inSummaryStack(uint64(c.v)) {
			if !spc.known {
				return constVal{}
			}
			return constVal{known: true, v: spc.v + c.v - int64(summaryStackBase)}
		}
		return c
	}

	post := pre.clone()
	for r := 0; r < isa.NumRegs; r++ {
		post.Regs[r] = subst(out.Regs[r])
		if sum.writes&(1<<r) != 0 {
			post.Const[r] = transConst(out.Const[r])
		}
	}
	post.Flags = subst(out.Flags)
	// The callee's unresolved stores join the caller's channel; its
	// paramMem component is already the caller's own channel, so only
	// the genuinely new taint is added.
	post.UnknownStore = pre.UnknownStore | subst(out.UnknownStore&^a.paramMem)
	for _, c := range out.Mem {
		addr := c.addr
		if inSummaryStack(addr) {
			if !spc.known {
				// Stack cell at an unknown caller offset: weaken into the
				// unresolved-store channel.
				post.UnknownStore |= subst(c.val)
				continue
			}
			addr = uint64(spc.v + int64(addr) - int64(summaryStackBase))
		}
		// Mirror join's one-sided-cell semantics: a cell first tracked
		// here still carries whatever secret range it overlays.
		v, ok := post.Mem.lookup(addr)
		if !ok {
			v = a.rangeSeed(addr, 8)
		}
		post.Mem.set(addr, v|subst(c.val))
	}
	return post
}

// havocState is the sound fallback when a callee's effect is unknown:
// every live taint bit (registers, flags, tracked cells, the
// unresolved-store channel, plus the may-alias bits of every declared
// secret range — the callee could have loaded them) may now be
// anywhere, and no constant survives. A program with no live taint
// stays clean: havoc smears what exists, it invents nothing definite.
func (a *Analysis) havocState(pre *State) *State {
	all := pre.Flags | pre.UnknownStore | pre.memUnion()
	for r := 0; r < isa.NumRegs; r++ {
		all |= pre.Regs[r]
	}
	for i := range a.Spec.SecretRanges {
		all |= a.rangeMay[i]
	}
	post := &State{Mem: slices.Clone(pre.Mem)}
	for r := 0; r < isa.NumRegs; r++ {
		post.Regs[r] = all
	}
	post.Flags = all
	post.UnknownStore = pre.UnknownStore | all
	for i := range post.Mem {
		post.Mem[i].val |= all
	}
	return post
}
