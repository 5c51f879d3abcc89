package staticlint

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"deaduops/internal/isa"
)

// Indirect-target resolution: a flow-sensitive value-set analysis (VSA)
// that runs once over the raw CFG, before the call graph is built, and
// tries to prove a *complete* target set for every CALLI/JMPI. A site
// whose target register provably holds one of a bounded set of mapped
// block-start addresses is "resolved": the CFG's placeholder
// EdgeIndirect is rewritten into real EdgeCall/EdgeTaken edges, the
// call graph gains the corresponding direct edges (so SCC-based summary
// fixpoints cover mutual recursion through function pointers), and the
// summary engine joins the resolved callees' summaries at the return
// site instead of havocking.
//
// Soundness is preserved by construction: resolution only replaces the
// havoc fallback when the value set is complete — every abstract value
// that can reach the site is enumerated AND every enumerated value is a
// mapped CFG block start. Any unresolvable contributor (an unbounded
// set, an address outside the program, a value laundered through
// unknown memory) keeps the site on the degrade-to-havoc contract
// exactly as before this pass existed.
//
// The lattice tracks, per register, either TOP or a bounded set of at
// most maxVSetSize concrete values, and a memory environment of
// strongly-updated cells at singleton-resolved addresses (the "bounded,
// read-only target table" pattern: the program stores code addresses at
// constant slots, then loads table[base + idx*8]). A store through an
// unbounded address poisons the whole memory environment (memTop): any
// cell could have been overwritten, so no table load resolves past it.
// Calls are treated conservatively: the return-address push writes at
// an untracked stack address (memTop) and the fall-through re-enters
// with all registers TOP — a resolution chain therefore never survives
// an intervening call, which is sound and cheap.

const (
	// maxVSetSize bounds a tracked value set; joins past it go to TOP.
	maxVSetSize = 16
	// maxVSAMemCells bounds the tracked memory environment; exceeding it
	// poisons memory (memTop) rather than growing without bound.
	maxVSAMemCells = 256
)

// vset is one register's abstract value: TOP or a sorted bounded set.
type vset struct {
	top  bool
	vals []uint64 // sorted, unique; empty+!top only before first write
}

var vsTop = vset{top: true}

func vsConst(v uint64) vset { return vset{vals: []uint64{v}} }

// vsOf sorts and dedupes vals in place, saturating to TOP when no
// value or more than maxVSetSize distinct values remain.
func vsOf(vals []uint64) vset {
	if len(vals) == 0 {
		return vsTop
	}
	slices.Sort(vals)
	out := slices.Compact(vals)
	if len(out) > maxVSetSize {
		return vsTop
	}
	return vset{vals: out}
}

func (v vset) equal(o vset) bool { return v.top == o.top && slices.Equal(v.vals, o.vals) }

// vsJoin unions two value sets. When one side contains the other it
// returns that side, so a set joined with itself (or with a subset) is
// that set. Otherwise it saturates to TOP when the two sides together
// hold more than maxVSetSize values: a set still growing at a loop
// header widens to TOP after about maxVSetSize/2 iterations instead of
// maxVSetSize, which halves the fixpoint's rounds for induction
// variables. Two empty sides join to TOP. A vset's values are never
// mutated once built, so the join returns a side itself without
// allocating where it can, and otherwise merges the two sorted sets.
func vsJoin(x, y vset) vset {
	switch {
	case x.top || y.top || len(x.vals)+len(y.vals) == 0:
		return vsTop
	case len(y.vals) == 0 || x.equal(y):
		return x
	case len(x.vals) == 0:
		return y
	}
	n := unionLen(x.vals, y.vals)
	switch {
	case n == len(x.vals):
		return x // y ⊆ x
	case n == len(y.vals):
		return y // x ⊆ y
	case len(x.vals)+len(y.vals) > maxVSetSize:
		return vsTop
	}
	out := make([]uint64, 0, n)
	i, j := 0, 0
	for i < len(x.vals) && j < len(y.vals) {
		a, b := x.vals[i], y.vals[j]
		if a <= b {
			i++
		}
		if b <= a {
			j++
		}
		out = append(out, min(a, b))
	}
	out = append(out, x.vals[i:]...)
	return vset{vals: append(out, y.vals[j:]...)}
}

// unionLen returns the size of the union of the sorted sets x and y.
func unionLen(x, y []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		if a <= b {
			i++
		}
		if b <= a {
			j++
		}
		n++
	}
	return n + len(x) - i + len(y) - j
}

// vsFold applies a binary ALU op pointwise over two bounded sets,
// saturating to TOP when more than maxVSetSize distinct results
// remain. Two bounded sets give at most maxVSetSize² products, so the
// products are computed and deduped before the size check: a fold
// like {0..8} AND {1, 3} = {0, 1, 2, 3} stays bounded.
func vsFold(op isa.Op, x, y vset) vset {
	if x.top || y.top || len(x.vals)*len(y.vals) > maxVSetSize*maxVSetSize {
		return vsTop
	}
	out := make([]uint64, 0, len(x.vals)*len(y.vals))
	for _, a := range x.vals {
		for _, b := range y.vals {
			v, ok := evalALU(op, a, b)
			if !ok {
				return vsTop
			}
			out = append(out, v)
		}
	}
	return vsOf(out)
}

// vsMask is the index-bounding special case: AND with a small immediate
// mask yields a bounded result even from a TOP source — the result can
// only be a submask of the mask. This is what makes `idx & (N-1)`
// table-dispatch patterns resolvable without tracking idx itself.
func vsMask(x vset, mask uint64) vset {
	if !x.top {
		return vsFold(isa.AND, x, vsConst(mask))
	}
	// Guard on the popcount itself, not on 1<<n: for wide masks the
	// shift overflows int (n=63 goes negative, n=64 wraps to zero), so
	// the size check would pass and the enumeration below would panic
	// on makeslice or walk up to 2^64 submasks. Imm is a full int64, so
	// masks like -1 and -2 are reachable from any user program.
	n := bits.OnesCount64(mask)
	if n >= bits.Len(uint(maxVSetSize)) {
		return vsTop
	}
	out := make([]uint64, 0, 1<<uint(n))
	// Standard submask enumeration, including 0.
	for sub := mask; ; sub = (sub - 1) & mask {
		out = append(out, sub)
		if sub == 0 {
			break
		}
	}
	return vsOf(out)
}

// vsaState is the abstract machine state at one program point.
type vsaState struct {
	regs [isa.NumRegs]vset
	// mem holds only cells with a bounded tracked value; an absent cell
	// reads as TOP (initial memory is unknown).
	mem    cellEnv[vset]
	memTop bool
}

func (s *vsaState) clone() *vsaState { return s.copyTo(nil) }

// copyTo is State.copyTo for value-set states.
func (s *vsaState) copyTo(dst *vsaState) *vsaState {
	if dst == nil {
		dst = new(vsaState)
	}
	buf := dst.mem
	*dst = *s
	dst.mem = append(buf[:0], s.mem...)
	return dst
}

// vsaJoin merges src into dst in place at a control-flow merge and
// reports whether dst changed: registers join pointwise, memory cells
// under vsaCells, and memory poisoning is sticky. A join allocates
// only where a register's value set grows.
func vsaJoin(dst, src *vsaState) bool {
	changed := false
	for r := range dst.regs {
		if j := vsJoin(dst.regs[r], src.regs[r]); !j.equal(dst.regs[r]) {
			dst.regs[r] = j
			changed = true
		}
	}
	switch {
	case dst.memTop:
		return changed
	case src.memTop:
		dst.poisonMem()
		return true
	}
	return joinCells(&dst.mem, src.mem, vsaCells{}) || changed
}

// vsaCells is the value-set cell join: a cell survives only when tracked
// on both paths (absent means TOP) and its joined set stays bounded.
type vsaCells struct{}

func (vsaCells) both(d, s vset) (vset, bool) {
	v := vsJoin(d, s)
	return v, !v.top
}
func (vsaCells) alone(uint64, vset) (vset, bool) { return vset{}, false }
func (vsaCells) equal(x, y vset) bool            { return x.equal(y) }

// poisonMem drops every tracked cell: an unbounded-address store (or a
// call's return-address push at an unknown stack pointer) may have
// overwritten any of them.
func (s *vsaState) poisonMem() {
	s.memTop = true
	s.mem = nil
}

// vsaAddrs resolves base+imm over a bounded base set; ok is false when
// the address set is unbounded.
func vsaAddrs(base vset, imm int64) (addrs []uint64, ok bool) {
	if base.top {
		return nil, false
	}
	out := make([]uint64, 0, len(base.vals))
	for _, b := range base.vals {
		out = append(out, b+uint64(imm))
	}
	return out, true
}

// vsaStep applies one instruction's VSA transfer function in place.
func (a *Analysis) vsaStep(st *vsaState, in *isa.Inst) {
	d := in.Dst & 0x0F
	s := in.Src & 0x0F
	switch in.Op {
	case isa.MOVI:
		st.regs[d] = vsConst(uint64(in.Imm))
	case isa.MOV:
		st.regs[d] = st.regs[s]
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		if !in.HasImm && d == s && (in.Op == isa.XOR || in.Op == isa.SUB) {
			st.regs[d] = vsConst(0) // zeroing idiom
			return
		}
		if in.HasImm {
			if in.Op == isa.AND {
				st.regs[d] = vsMask(st.regs[d], uint64(in.Imm))
			} else {
				st.regs[d] = vsFold(in.Op, st.regs[d], vsConst(uint64(in.Imm)))
			}
		} else {
			st.regs[d] = vsFold(in.Op, st.regs[d], st.regs[s])
		}
	case isa.LOAD:
		st.regs[d] = a.vsaLoad(st, in)
	case isa.LOADB, isa.RDTSC:
		// A byte read cannot reconstitute a code pointer usefully; the
		// cycle counter is unknown by definition.
		st.regs[d] = vsTop
	case isa.STORE:
		a.vsaStore(st, st.regs[s], in.Imm, st.regs[d], 8)
	case isa.STOREB:
		// Partial overwrite: every touched cell's tracked value dies.
		a.vsaStore(st, st.regs[s], in.Imm, vsTop, 1)
	case isa.CALL, isa.CALLI, isa.SYSCALL:
		// The return-address push writes through the (untracked) stack
		// pointer: conservatively, any tracked cell may be gone. The
		// fall-through's register havoc is applied at the edge (vsaFlow.edge);
		// the EdgeCall side keeps the caller registers so call-site
		// argument values flow into callee bodies.
		st.poisonMem()
		st.regs[15] = vsFold(isa.SUB, st.regs[15], vsConst(8))
	case isa.RET:
		st.regs[15] = vsFold(isa.ADD, st.regs[15], vsConst(8))
	}
}

// vsaLoad evaluates LOAD [base+imm] over the memory environment: the
// union of the tracked cells at every address in the bounded address
// set, TOP as soon as any contributor is unknown.
func (a *Analysis) vsaLoad(st *vsaState, in *isa.Inst) vset {
	if st.memTop {
		return vsTop
	}
	addrs, ok := vsaAddrs(st.regs[in.Src&0x0F], in.Imm)
	if !ok {
		return vsTop
	}
	out := vset{}
	for _, addr := range addrs {
		cell, tracked := st.mem.lookup(addr)
		if !tracked {
			return vsTop
		}
		out = vsJoin(out, cell)
		if out.top {
			return vsTop
		}
	}
	if len(out.vals) == 0 {
		return vsTop
	}
	return out
}

// vsaStore evaluates a width-byte store of val through base+imm:
// strong update at a singleton address, weak update over a bounded
// set, memory poison when the address is unbounded. Tracked cells are
// 8-byte values, so a store of bytes [addr, addr+width) concretely
// rewrites part of every cell whose extent [c, c+8) overlaps that
// range — each such cell's tracked value is stale and must die, not
// just the cell keyed at the exact store address. The one exception is
// the cell exactly at addr under a full-width store: it is completely
// overwritten and receives the stored value below.
func (a *Analysis) vsaStore(st *vsaState, base vset, imm int64, val vset, width uint64) {
	if st.memTop {
		return
	}
	addrs, ok := vsaAddrs(base, imm)
	if !ok {
		st.poisonMem()
		return
	}
	// A full-width store completely overwrites the cell at its address;
	// a partial store, or one of TOP, leaves nothing there to track.
	keep := width == 8 && !val.top
	for _, addr := range addrs {
		// The overlapping cells sit at addr-7 .. addr+width-1, a range
		// that wraps around the address space when addr is within 7 of
		// either end.
		lo, hi := addr-7, addr+width-1
		if lo <= hi {
			st.mem.killRange(lo, hi, addr, keep)
		} else {
			st.mem.killRange(lo, math.MaxUint64, addr, keep)
			st.mem.killRange(0, hi, addr, keep)
		}
	}
	switch {
	case !keep:
		// The loop above already killed everything the store touched.
	case len(addrs) == 1:
		st.mem.set(addrs[0], val)
	default:
		// Weak update: the store hit exactly one of addrs. A cell at one
		// of them that survived the invalidation loop (no *other* written
		// address overlaps it) is either unchanged or holds val.
		for _, addr := range addrs {
			if cell, tracked := st.mem.lookup(addr); tracked {
				if j := vsJoin(cell, val); j.top {
					st.mem.killRange(addr, addr, 0, false) // forget addr
				} else {
					st.mem.set(addr, j)
				}
			}
		}
	}
	if len(st.mem) > maxVSAMemCells {
		st.poisonMem()
	}
}

// vsaEntry is the state at a program entry: everything unknown except
// the spec's declared ABI constants.
func (a *Analysis) vsaEntry() *vsaState {
	st := &vsaState{regs: vsaHavoc.regs}
	for r, v := range a.Spec.EntryConsts {
		st.regs[r&0x0F] = vsConst(uint64(v))
	}
	return st
}

// vsaFlow is the value-set dataflow the worklist driver runs.
type vsaFlow struct{ a *Analysis }

func (f vsaFlow) copy(dst, src *vsaState) *vsaState { return src.copyTo(dst) }
func (f vsaFlow) step(st *vsaState, in *isa.Inst)   { f.a.vsaStep(st, in) }
func (f vsaFlow) join(dst, src *vsaState) bool      { return vsaJoin(dst, src) }

// edge carries the exit state along every edge but a call's
// fall-through, which re-enters with all registers TOP (the callee may
// have clobbered anything); memory poisoning from the call's own push
// is already in out.
func (f vsaFlow) edge(b *Block, e Edge, out *vsaState) *vsaState {
	if op := b.Last().Op; e.Kind == EdgeFallThrough && (op == isa.CALL || op == isa.CALLI || op == isa.SYSCALL) {
		return vsaHavoc
	}
	return out
}

// vsaHavoc is the state after a call returns: every register TOP and
// memory poisoned. The driver only reads it.
var vsaHavoc = func() *vsaState {
	st := &vsaState{memTop: true}
	for r := range st.regs {
		st.regs[r] = vsTop
	}
	return st
}()

// resolveIndirect runs the VSA fixpoint and sets a.resolved[b] for
// every block b ending in a CALLI/JMPI whose target set passed the
// completeness gate. A capped fixpoint resolves nothing: partial VSA
// states could miss a reaching value, so the degrade-to-havoc contract
// takes over wholesale. A program with no CALLI/JMPI skips the
// fixpoint: its only output is read at such sites, so a site-free
// program's a.resolved is all nil either way.
func (a *Analysis) resolveIndirect() {
	g := a.CFG
	a.resolved = make([][]uint64, len(g.Blocks))
	if !slices.ContainsFunc(g.Blocks, endsIndirect) {
		return
	}
	in, _, capped := fixpoint(g, vsaFlow{a}, g.Entries(), a.vsaEntry)
	if capped {
		return
	}
	for _, b := range g.Blocks {
		if !endsIndirect(b) || in[b.Index] == nil {
			continue
		}
		last := b.Last()
		st := in[b.Index].clone()
		for _, inst := range b.Insts[:len(b.Insts)-1] {
			a.vsaStep(st, inst)
		}
		if ts := a.completeTargets(st.regs[last.Dst&0x0F]); ts != nil {
			a.resolved[b.Index] = ts
		}
	}
}

// endsIndirect reports whether b ends in an indirect call or jump, the
// only sites whose value sets resolution reads.
func endsIndirect(b *Block) bool {
	op := b.Last().Op
	return op == isa.CALLI || op == isa.JMPI
}

// completeTargets applies the completeness gate: a target set is usable
// only when it is bounded, non-empty, and every member is the start of
// a mapped CFG block — an address the analysis can actually follow. One
// unresolvable member disqualifies the whole site (havoc), never just
// the member: dropping it would under-approximate.
func (a *Analysis) completeTargets(v vset) []uint64 {
	if v.top || len(v.vals) == 0 {
		return nil
	}
	for _, t := range v.vals {
		if a.CFG.BlockAt(t) == nil {
			return nil
		}
	}
	return slices.Clone(v.vals)
}

// rewriteIndirectEdges replaces each resolved site's EdgeIndirect
// placeholder with concrete edges — EdgeCall per CALLI target,
// EdgeTaken per JMPI target — and updates predecessor lists, so the
// whole-program dataflow, function partitioning, and entry detection
// see resolved indirect transfers exactly like direct ones.
func (a *Analysis) rewriteIndirectEdges() {
	g := a.CFG
	changed := map[int]bool{}
	for _, b := range g.Blocks {
		ts := a.resolved[b.Index]
		if len(ts) == 0 {
			continue
		}
		kind := EdgeTaken
		if b.Last().Op == isa.CALLI {
			kind = EdgeCall
		}
		succs := make([]Edge, 0, len(b.Succs)-1+len(ts))
		for _, e := range b.Succs {
			if e.Kind == EdgeIndirect {
				continue
			}
			succs = append(succs, e)
		}
		for _, t := range ts {
			to := g.BlockAt(t).Index
			succs = append(succs, Edge{To: to, Kind: kind})
			g.Blocks[to].Preds = append(g.Blocks[to].Preds, b.Index)
			changed[to] = true
		}
		b.Succs = succs
	}
	for to := range changed {
		slices.Sort(g.Blocks[to].Preds)
		g.Blocks[to].Preds = slices.Compact(g.Blocks[to].Preds)
	}
}

// ResolvedSite is one indirect control transfer the resolution pass
// proved a complete target set for, in report wire form.
type ResolvedSite struct {
	Addr    uint64
	Kind    string // "calli" or "jmpi"
	Targets []uint64
}

// resolvedSiteJSON renders addresses as hex strings, like findings.
type resolvedSiteJSON struct {
	Addr    string   `json:"addr"`
	Kind    string   `json:"kind"`
	Targets []string `json:"targets"`
}

// MarshalJSON implements json.Marshaler.
func (r ResolvedSite) MarshalJSON() ([]byte, error) {
	j := resolvedSiteJSON{
		Addr: fmt.Sprintf("%#x", r.Addr),
		Kind: r.Kind,
	}
	for _, t := range r.Targets {
		j.Targets = append(j.Targets, fmt.Sprintf("%#x", t))
	}
	return json.Marshal(j)
}

// Precision summarizes how much of the program's indirect control flow
// the resolution pass pinned down. HavocRateBefore is the rate without
// the pass — every indirect site degraded to havoc — so before/after
// is directly comparable in dashboards and CI artifacts.
type Precision struct {
	IndirectSites   int     `json:"indirect_sites"`
	ResolvedSites   int     `json:"resolved_sites"`
	HavocSites      int     `json:"havoc_sites"`
	HavocRateBefore float64 `json:"havoc_rate_before"`
	HavocRate       float64 `json:"havoc_rate"`
}

// ResolvedTargets lists the resolved indirect sites, ascending by
// address, for reports.
func (a *Analysis) ResolvedTargets() []ResolvedSite {
	var out []ResolvedSite
	for bi, ts := range a.resolved {
		if len(ts) == 0 {
			continue
		}
		last := a.CFG.Blocks[bi].Last()
		kind := "jmpi"
		if last.Op == isa.CALLI {
			kind = "calli"
		}
		out = append(out, ResolvedSite{Addr: last.Addr, Kind: kind, Targets: ts})
	}
	return out
}

// PrecisionMetrics counts the program's CALLI/JMPI sites against the
// resolved set. It returns nil when the program has no indirect sites
// (SYSCALL kernel crossings are not dispatch sites and are excluded).
func (a *Analysis) PrecisionMetrics() *Precision {
	p := &Precision{}
	for _, b := range a.CFG.Blocks {
		if endsIndirect(b) {
			p.IndirectSites++
			if len(a.resolved[b.Index]) > 0 {
				p.ResolvedSites++
			}
		}
	}
	if p.IndirectSites == 0 {
		return nil
	}
	p.HavocSites = p.IndirectSites - p.ResolvedSites
	p.HavocRateBefore = 1
	p.HavocRate = float64(p.HavocSites) / float64(p.IndirectSites)
	return p
}
