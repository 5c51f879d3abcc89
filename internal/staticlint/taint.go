package staticlint

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// MemRange is a half-open guest-memory interval [Start, End) declared
// secret.
type MemRange struct {
	Start, End uint64
}

// Contains reports whether the access [addr, addr+size) overlaps r.
func (r MemRange) Contains(addr uint64, size int) bool {
	return addr < r.End && addr+uint64(size) > r.Start
}

// Spec declares what the analysis must treat as secret, plus any
// architectural facts known at entry (ABI constants).
type Spec struct {
	// SecretRegs are registers holding secrets at routine entry.
	SecretRegs []isa.Reg
	// SecretRanges are guest-memory intervals holding secrets. A load
	// from a statically known address inside a range is a definite
	// secret; a load whose address cannot be resolved may alias any
	// range and acquires may-taint.
	SecretRanges []MemRange
	// EntryConsts pins registers to known constants at entry (e.g. an
	// ABI's zero register), improving address resolution.
	EntryConsts map[isa.Reg]int64
}

// taintSet is a bitmask over the analysis' source table. Source
// indices beyond 63 share the saturation bit.
type taintSet uint64

const saturationBit = 63

func bitFor(idx int) taintSet {
	if idx >= saturationBit {
		idx = saturationBit
	}
	return 1 << uint(idx)
}

// SourceKind classifies a taint source.
type SourceKind int

// Source kinds.
const (
	// SrcSecretReg is a register declared secret at entry.
	SrcSecretReg SourceKind = iota
	// SrcSecretRange is a definite read of a declared secret range.
	SrcSecretRange
	// SrcMayAlias is a load at a statically unresolved address that
	// may alias a declared secret range.
	SrcMayAlias
	// SrcLoad is a transient-window load (gadget mode): any value a
	// bypassed guard lets the victim read.
	SrcLoad
	// SrcParamReg/SrcParamFlags/SrcParamMem are the placeholder sources
	// function summaries are computed over: they stand for the caller's
	// register/flags/unresolved-store taint and are substituted with the
	// caller's actual bits when a summary is applied at a call site.
	// They never appear in findings.
	SrcParamReg
	SrcParamFlags
	SrcParamMem
)

// Source is one entry of the taint source table.
type Source struct {
	Kind  SourceKind
	Reg   isa.Reg  // SrcSecretReg
	Range MemRange // SrcSecretRange / SrcMayAlias
	Addr  uint64   // SrcLoad: the load instruction's address
}

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s.Kind {
	case SrcSecretReg:
		return fmt.Sprintf("secret register %s", s.Reg)
	case SrcSecretRange:
		return fmt.Sprintf("secret range [%#x,%#x)", s.Range.Start, s.Range.End)
	case SrcMayAlias:
		return fmt.Sprintf("may-alias of secret range [%#x,%#x)", s.Range.Start, s.Range.End)
	case SrcLoad:
		return fmt.Sprintf("guarded load at %#x", s.Addr)
	case SrcParamReg:
		return fmt.Sprintf("callee input register %s", s.Reg)
	case SrcParamFlags:
		return "callee input flags"
	case SrcParamMem:
		return "callee input memory"
	default:
		return "source?"
	}
}

// constVal is the constant-propagation lattice for one register: a
// known 64-bit constant, or not-a-constant, which is the zero constVal.
type constVal struct {
	known bool
	v     int64
}

// State is the dataflow fact at one program point: per-register taint
// and constant values, flags taint, and the memory taint model.
type State struct {
	Regs  [isa.NumRegs]taintSet
	Const [isa.NumRegs]constVal
	// Flags is the taint of the architectural flags (set by CMP/TEST).
	Flags taintSet
	// Mem taints individually resolved memory cells (strong updates).
	// A cell holding 0 is not an absent one: it is a known-clean value
	// (a kill), where an absent cell reads as its secret-range seed.
	Mem cellEnv[taintSet]
	// UnknownStore accumulates taint written through unresolved
	// addresses; every unresolved load may observe it (weak channel).
	UnknownStore taintSet
}

// clone returns an independent copy of s.
func (s *State) clone() *State { return s.copyTo(nil) }

// copyTo copies s into dst, reusing dst's cell buffer, and returns dst;
// a nil dst is allocated.
func (s *State) copyTo(dst *State) *State {
	if dst == nil {
		dst = new(State)
	}
	buf := dst.Mem
	*dst = *s
	dst.Mem = append(buf[:0], s.Mem...)
	return dst
}

// memUnion returns the union of all individually tracked cell taints.
func (s *State) memUnion() taintSet {
	var u taintSet
	for _, c := range s.Mem {
		u |= c.val
	}
	return u
}

// Analysis is the result of running the dataflow engine over a
// program: the CFG, the source table, and the per-block fixpoint
// states checkers consume.
type Analysis struct {
	Prog *asm.Program
	CFG  *CFG
	Spec Spec
	Cfg  Config

	sources []Source
	// rangeDef/rangeMay are the source bits of each secret range's
	// definite and may-alias readings, indexed like Spec.SecretRanges.
	rangeDef []taintSet
	rangeMay []taintSet
	// secretDef/secretMay are the unions over all secret seeds.
	secretDef taintSet
	secretMay taintSet

	in      []*State // fixpoint in-state per block
	reached []bool

	// Facts every checker reads, derived once by run: the secret
	// branches in address order, and the transient-window gadgets.
	branches []secretBranch
	gadgets  []GadgetHit

	// Interprocedural layer (callgraph.go / summary.go): the function
	// partition, per-function taint summaries, and the placeholder
	// sources summaries are expressed over.
	funcs  []*Func // in entry-address order (funcAt)
	funcOf []int   // block index → owning funcs index (-1: none)
	// resolved holds, per block ending in a CALLI/JMPI, the complete
	// target set the value-set analysis proved for it (resolve.go);
	// sites with none keep the degrade-to-havoc contract.
	resolved   [][]uint64
	callers    [][]callerRef
	funcWrites []uint32
	summaries  []*summary // per function
	paramReg   [isa.NumRegs]taintSet
	paramFlags taintSet
	paramMem   taintSet
	paramMask  taintSet
	paramsOK   bool
	inSummary  bool // a summary fixpoint is running (loadTaint hook)

	// cache, when non-nil, serves and receives per-function summaries
	// keyed by content hash (cache.go) so re-analysis after an edit
	// recomputes only changed functions and their SCC dependents.
	cache *Cache

	// segs decodes every fetch segment the analysis prices or places,
	// each distinct content once (quantify.go); nil until first use.
	segs *segMemo
}

// Sources returns the taint source table (indexed by bit position,
// saturating at 63).
func (a *Analysis) Sources() []Source { return a.sources }

// SourcesOf lists the sources in set, for findings.
func (a *Analysis) SourcesOf(set taintSet) []Source {
	var out []Source
	for i, s := range a.sources {
		if set&bitFor(i) != 0 {
			out = append(out, s)
		}
	}
	return out
}

func (a *Analysis) addSource(s Source) taintSet {
	a.sources = append(a.sources, s)
	return bitFor(len(a.sources) - 1)
}

// SecretTaint splits set into its definite- and may-secret components.
func (a *Analysis) SecretTaint(set taintSet) (def, may taintSet) {
	return set & a.secretDef, set & a.secretMay
}

// Analyze builds the CFG and runs the forward taint dataflow to a
// fixpoint, then derives the facts the checkers share (see run).
func Analyze(prog *asm.Program, spec Spec, cfg Config) *Analysis {
	return analyzeWith(prog, spec, cfg, nil)
}

// analyzeWith is Analyze with an optional summary cache attached.
func analyzeWith(prog *asm.Program, spec Spec, cfg Config, cache *Cache) *Analysis {
	a := &Analysis{
		Prog:  prog,
		CFG:   BuildCFG(prog),
		Spec:  spec,
		Cfg:   cfg,
		cache: cache,
	}
	for _, r := range spec.SecretRegs {
		a.secretDef |= a.addSource(Source{Kind: SrcSecretReg, Reg: r})
	}
	for _, mr := range spec.SecretRanges {
		d := a.addSource(Source{Kind: SrcSecretRange, Range: mr})
		m := a.addSource(Source{Kind: SrcMayAlias, Range: mr})
		a.rangeDef = append(a.rangeDef, d)
		a.rangeMay = append(a.rangeMay, m)
		a.secretDef |= d
		a.secretMay |= m
	}
	a.run()
	return a
}

// entryState builds the seed state applied at every entry block.
func (a *Analysis) entryState() *State {
	st := &State{}
	for i, r := range a.Spec.SecretRegs {
		st.Regs[r&0x0F] |= bitFor(i)
	}
	for r, v := range a.Spec.EntryConsts {
		st.Const[r&0x0F] = constVal{known: true, v: v}
	}
	return st
}

// run builds the call graph, computes bottom-up function summaries,
// and then executes the whole-program worklist fixpoint, applying a
// callee's summary along each call's fall-through edge (the return
// site) instead of the old flow-through over-approximation. The
// EdgeCall edge still carries the (post-push) caller state into the
// callee body, so callee-internal findings see real calling contexts.
// Last it derives, once per analysis, what the checkers read: the
// secret branches with their successor walks and prices, and the
// transient-window gadget scan over the same CFG and function
// partition.
func (a *Analysis) run() {
	// Indirect-target resolution runs first, on the raw CFG: resolved
	// CALLI/JMPI sites get concrete edges before functions are
	// partitioned, so everything downstream — entry detection, call
	// graph SCCs, summaries, the whole-program fixpoint — treats them
	// like direct transfers.
	a.resolveIndirect()
	a.rewriteIndirectEdges()
	a.buildFuncs()
	a.allocParams()
	a.computeSummaries()
	// A capped whole-program fixpoint can only miss findings (there is
	// no summary to poison here); the partial in-states are still the
	// best available facts, so keep them rather than reporting nothing.
	a.in, a.reached, _ = fixpoint(a.CFG, taintFlow{a: a, followCalls: true}, a.CFG.Entries(), a.entryState)
	a.branches = a.findSecretBranches()
	a.gadgets = a.scanGadgets()
}

// joinInto merges src into dst in place at a control-flow merge point
// and reports whether dst changed: taint unions, constants meet
// (disagreement decays to not-a-constant), and tracked memory cells
// union under taintCells. src is left as it was.
func (a *Analysis) joinInto(dst, src *State) bool {
	old := *dst
	for r := range dst.Regs {
		dst.Regs[r] |= src.Regs[r]
		if dst.Const[r] != src.Const[r] {
			dst.Const[r] = constVal{}
		}
	}
	dst.Flags |= src.Flags
	dst.UnknownStore |= src.UnknownStore
	changed := dst.Regs != old.Regs || dst.Const != old.Const ||
		dst.Flags != old.Flags || dst.UnknownStore != old.UnknownStore
	return joinCells(&dst.Mem, src.Mem, taintCells{a}) || changed
}

// taintCells is the taint engine's cell join: cells union, and a cell
// tracked on only one path unions with the secret-range seed it would
// read as on the other. Every cell is kept, zero-taint ones included.
type taintCells struct{ a *Analysis }

func (taintCells) both(d, s taintSet) (taintSet, bool) { return d | s, true }
func (p taintCells) alone(addr uint64, v taintSet) (taintSet, bool) {
	return v | p.a.rangeSeed(addr, 8), true
}
func (taintCells) equal(x, y taintSet) bool { return x == y }

// rangeSeed returns the definite-secret bits of ranges overlapping the
// access [addr, addr+size).
func (a *Analysis) rangeSeed(addr uint64, size int) taintSet {
	var t taintSet
	for i, r := range a.Spec.SecretRanges {
		if r.Contains(addr, size) {
			t |= a.rangeDef[i]
		}
	}
	return t
}

// loadHook lets the gadget checkers inject fresh taint at load sites
// (the transient-window semantics); whole-program analysis passes nil.
type loadHook func(in *isa.Inst) taintSet

// loadTaint computes the taint of a load's result.
func (a *Analysis) loadTaint(st *State, in *isa.Inst, size int, hook loadHook) taintSet {
	var t taintSet
	if hook != nil {
		t |= hook(in)
	}
	if c := st.Const[in.Src&0x0F]; c.known {
		addr := uint64(c.v + in.Imm)
		if mv, ok := st.Mem.lookup(addr); ok {
			t |= mv
		} else {
			t |= a.rangeSeed(addr, size)
			if a.inSummary && !calleeFreshCell(addr) {
				// Summary mode: an untracked resolved cell still holds
				// whatever the caller's memory holds there — the
				// placeholder memory bit carries that dependence to the
				// call site, where it substitutes to the caller's view.
				// Only the callee's own fresh frame (and the
				// return-address slot the CALL pushed) is provably clean;
				// symbolic-stack addresses above it sit in the CALLER's
				// frame and may hold caller data (e.g. a spilled secret).
				t |= a.paramMem
			}
		}
		return t
	}
	// Unresolved address: the load may observe any declared secret
	// range, any unresolved store, and any tracked cell.
	for i := range a.Spec.SecretRanges {
		t |= a.rangeMay[i]
	}
	t |= st.UnknownStore | st.memUnion()
	return t
}

// step applies one instruction's transfer function to st in place.
func (a *Analysis) step(st *State, in *isa.Inst, hook loadHook) {
	d := in.Dst & 0x0F
	s := in.Src & 0x0F
	switch in.Op {
	case isa.MOVI:
		st.Regs[d] = 0
		st.Const[d] = constVal{known: true, v: in.Imm}
	case isa.MOV:
		st.Regs[d] = st.Regs[s]
		st.Const[d] = st.Const[s]
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		if !in.HasImm && d == s && (in.Op == isa.XOR || in.Op == isa.SUB) {
			// Zeroing idiom: the result is the constant 0 regardless of
			// the operand — taint dies here (kill on overwrite).
			st.Regs[d] = 0
			st.Const[d] = constVal{known: true, v: 0}
			return
		}
		if in.HasImm {
			st.Const[d] = foldConst(in.Op, st.Const[d], constVal{known: true, v: in.Imm})
		} else {
			st.Regs[d] |= st.Regs[s]
			st.Const[d] = foldConst(in.Op, st.Const[d], st.Const[s])
		}
	case isa.CMP, isa.TEST:
		st.Flags = st.Regs[d]
		if !in.HasImm {
			st.Flags |= st.Regs[s]
		}
	case isa.LOAD:
		st.Regs[d] = a.loadTaint(st, in, 8, hook)
		st.Const[d] = constVal{}
	case isa.LOADB:
		st.Regs[d] = a.loadTaint(st, in, 1, hook)
		st.Const[d] = constVal{}
	case isa.STORE, isa.STOREB:
		// Dst holds the stored value, Src the base register. An
		// unresolved store may write any cell, and which cell it writes
		// depends on the base, so a later load sees both taints.
		if c := st.Const[s]; c.known {
			st.Mem.set(uint64(c.v+in.Imm), st.Regs[d]) // strong update
		} else {
			st.UnknownStore |= st.Regs[d] | st.Regs[s]
		}
	case isa.RDTSC:
		// Overwrites Dst with the cycle counter: kill.
		st.Regs[d] = 0
		st.Const[d] = constVal{}
	case isa.CALL, isa.CALLI:
		// The reference machine pushes the return address: R15 drops by
		// 8 and the slot gets a clean (untainted) code address. Modelled
		// as a strong update when the stack pointer resolves, so a
		// secret spilled at the same slot earlier is killed and a later
		// reload of the slot reads untainted.
		if c := st.Const[15]; c.known {
			sp := c.v - 8
			st.Const[15] = constVal{known: true, v: sp}
			st.Mem.set(uint64(sp), 0)
		}
	case isa.RET:
		// Pop: the return target comes from the stack slot (the CFG has
		// no successor edge here); only the stack-pointer constant
		// matters — it keeps callee summaries stack-balanced.
		if c := st.Const[15]; c.known {
			st.Const[15] = constVal{known: true, v: c.v + 8}
		}
	case isa.SYSCALL:
		// Kernel entry: the return address goes to the machine's
		// syscall stack, not the guest stack — no register effect here;
		// the unknown kernel effect is applied at the fall-through edge
		// (taintFlow.edge havoc).
	}
}

// evalALU evaluates a binary ALU op on two concrete operands — the one
// fold both the constant lattice (step) and the value-set analysis
// (vsFold) use. Shift counts are masked to 6 bits and SHR is logical,
// as on the modelled machine; ok is false for any other op.
func evalALU(op isa.Op, x, y uint64) (v uint64, ok bool) {
	switch op {
	case isa.ADD:
		return x + y, true
	case isa.SUB:
		return x - y, true
	case isa.AND:
		return x & y, true
	case isa.OR:
		return x | y, true
	case isa.XOR:
		return x ^ y, true
	case isa.SHL:
		return x << (y & 63), true
	case isa.SHR:
		return x >> (y & 63), true
	default:
		return 0, false
	}
}

// foldConst evaluates an ALU op over the constant lattice.
func foldConst(op isa.Op, x, y constVal) constVal {
	if !x.known || !y.known {
		return constVal{}
	}
	v, ok := evalALU(op, uint64(x.v), uint64(y.v))
	return constVal{known: ok, v: int64(v)}
}
