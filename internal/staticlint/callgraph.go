package staticlint

import (
	"cmp"
	"slices"
	"sort"

	"deaduops/internal/isa"
)

// The call-graph layer: partitions the CFG into functions, records the
// call sites between them, and orders them bottom-up (callees before
// callers) for summary computation. A "function" here is a purely
// syntactic notion — the blocks reachable from an entry through
// intraprocedural edges — which is exactly what the summary engine
// needs: the unit over which a CALL's effect can be precomputed once
// and applied at every site.

// callSite is one call instruction inside a function: a direct CALL
// with a resolved target, an indirect CALLI the resolution pass proved
// a complete target set for, or an indirect transfer (CALLI/SYSCALL)
// whose callee set is statically unknown.
type callSite struct {
	addr     uint64 // address of the call instruction
	target   uint64 // direct CALL target (meaningless when indirect)
	indirect bool
	// targets is the complete resolved target set of an indirect call
	// (resolve.go); nil means the callee set is unknown (havoc).
	targets []uint64
}

// callees returns the statically known callee entries of the site, or
// nil when the callee set is unknown and the havoc contract applies.
func (cs *callSite) callees() []uint64 {
	if !cs.indirect {
		return []uint64{cs.target}
	}
	return cs.targets
}

// Func is one call-graph node: an entry block plus every block
// reachable from it through non-call edges.
type Func struct {
	Entry      uint64
	EntryBlock int
	// Blocks lists the member CFG block indices, ascending.
	Blocks []int
	// Calls are the call sites inside the function, in address order.
	Calls []callSite
	// hasIndirectJump: a JMPI inside the body means control can leave
	// the function invisibly; its summary degrades to havoc.
	hasIndirectJump bool
}

// callerRef records one direct call site targeting a function.
type callerRef struct {
	caller int    // calling function index
	site   uint64 // call instruction address
}

// buildFuncs partitions the CFG into functions. Entries are the blocks
// with no predecessors (program entries and unreferenced routines)
// plus every call-edge target: each direct CALL target and, once
// rewriteIndirectEdges has run, each resolved CALLI target (the
// completeness gate guarantees its block exists). Bodies are collected
// by traversing fallthrough/taken edges only, so a callee reached
// solely by CALL is its own function even when it falls adjacent in
// the image. Functions come out in entry-address order.
func (a *Analysis) buildFuncs() {
	g := a.CFG
	if len(g.Blocks) == 0 {
		return
	}
	entry := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		if len(b.Preds) == 0 {
			entry[b.Index] = true
		}
		for _, e := range b.Succs {
			if e.Kind == EdgeCall && e.To >= 0 {
				entry[e.To] = true
			}
		}
	}
	if !slices.Contains(entry, true) {
		// Fully cyclic program: treat block 0 as the lone entry, as the
		// dataflow seeding does.
		entry[0] = true
	}

	// seen[bi] == len(a.funcs)+1 marks block bi as a member of the
	// function being collected; one slice serves every function.
	seen := make([]int, len(g.Blocks))
	for e, isEntry := range entry {
		if !isEntry {
			continue
		}
		f := &Func{Entry: g.Blocks[e].Start(), EntryBlock: e}
		mark := len(a.funcs) + 1
		seen[e] = mark
		work := []int{e}
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			f.Blocks = append(f.Blocks, bi)
			blk := g.Blocks[bi]
			switch last := blk.Last(); last.Op {
			case isa.CALL:
				f.Calls = append(f.Calls, callSite{addr: last.Addr, target: uint64(last.Imm)})
			case isa.CALLI:
				f.Calls = append(f.Calls, callSite{addr: last.Addr, indirect: true, targets: a.resolved[bi]})
			case isa.SYSCALL:
				f.Calls = append(f.Calls, callSite{addr: last.Addr, indirect: true})
			case isa.JMPI:
				// A resolved JMPI has real EdgeTaken successors the body
				// traversal follows; only an unresolved one means control
				// can leave invisibly.
				if len(a.resolved[bi]) == 0 {
					f.hasIndirectJump = true
				}
			}
			for _, e2 := range blk.Succs {
				if e2.To < 0 || e2.Kind == EdgeCall {
					continue
				}
				if seen[e2.To] != mark {
					seen[e2.To] = mark
					work = append(work, e2.To)
				}
			}
		}
		sort.Ints(f.Blocks)
		sort.Slice(f.Calls, func(i, j int) bool { return f.Calls[i].addr < f.Calls[j].addr })
		a.funcs = append(a.funcs, f)
	}

	// funcOf: the innermost owner per block. Blocks shared between
	// functions (tail blocks jumped into from several routines) are
	// attributed to the function whose entry is the closest preceding
	// address — the natural "this code belongs to" reading.
	a.funcOf = make([]int, len(g.Blocks))
	for i := range a.funcOf {
		a.funcOf[i] = -1
	}
	for fi, f := range a.funcs {
		for _, bi := range f.Blocks {
			cur := a.funcOf[bi]
			if cur < 0 || betterOwner(g.Blocks[bi].Start(), f, a.funcs[cur]) {
				a.funcOf[bi] = fi
			}
		}
	}

	// Reverse call edges, for call-chain reconstruction. Resolved
	// indirect sites contribute one edge per target, so call chains
	// trace through resolved indirect frames.
	a.callers = make([][]callerRef, len(a.funcs))
	for fi, f := range a.funcs {
		for _, cs := range f.Calls {
			for _, t := range cs.callees() {
				if j, ok := a.funcAt(t); ok {
					a.callers[j] = append(a.callers[j], callerRef{caller: fi, site: cs.addr})
				}
			}
		}
	}
	for _, refs := range a.callers {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].site != refs[j].site {
				return refs[i].site < refs[j].site
			}
			return refs[i].caller < refs[j].caller
		})
	}
}

// funcAt returns the index of the function entered at addr: a.funcs is
// in entry-address order.
func (a *Analysis) funcAt(addr uint64) (int, bool) {
	return slices.BinarySearchFunc(a.funcs, addr, func(f *Func, t uint64) int { return cmp.Compare(f.Entry, t) })
}

// betterOwner reports whether cand is a better owner than cur for a
// block starting at bs: prefer entries at or below bs, then the
// closest one.
func betterOwner(bs uint64, cand, cur *Func) bool {
	cb, ub := cand.Entry <= bs, cur.Entry <= bs
	if cb != ub {
		return cb
	}
	if cb {
		return cand.Entry > cur.Entry
	}
	return cand.Entry < cur.Entry
}

// callSCCs computes the strongly connected components of the direct
// call graph (Tarjan), emitted in reverse topological order: every
// component is listed after all components it calls into, so summaries
// can be computed bottom-up.
func (a *Analysis) callSCCs() [][]int {
	n := len(a.funcs)
	adj := make([][]int, n)
	for fi, f := range a.funcs {
		for _, cs := range f.Calls {
			for _, t := range cs.callees() {
				if j, ok := a.funcAt(t); ok {
					adj[fi] = append(adj[fi], j)
				}
			}
		}
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Ints(scc)
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	return sccs
}

// selfCalls reports whether function fi calls itself through a direct
// CALL or a resolved indirect site.
func (a *Analysis) selfCalls(fi int) bool {
	f := a.funcs[fi]
	for _, cs := range f.Calls {
		for _, t := range cs.callees() {
			if t == f.Entry {
				return true
			}
		}
	}
	return false
}

// callChainTo reconstructs the shortest call chain from a caller-less
// root function down to the function owning addr, rendered root-first.
// It returns nil when the owner is itself a root (no interprocedural
// context) or unreachable through direct calls (e.g. pure recursion
// with no external caller).
//
// The chain is ONE representative path, not an enumeration: a site
// with several callers, or in a tail block shared between functions
// (funcOf picks a single owner), is reachable along other real paths
// the trace does not show. Findings are computed over the join of all
// calling contexts, so only the displayed route — never the verdict —
// depends on this choice.
func (a *Analysis) callChainTo(addr uint64) []CallFrame {
	b := a.CFG.BlockOf(addr)
	if b == nil || a.funcOf == nil || a.funcOf[b.Index] < 0 {
		return nil
	}
	target := a.funcOf[b.Index]
	// BFS upward through the reverse call edges; down[f] records the
	// call edge used to descend from f toward the target, so hitting a
	// root yields the chain directly.
	type downEdge struct {
		site   uint64
		callee int
	}
	down := make([]downEdge, len(a.funcs))
	visited := make([]bool, len(a.funcs))
	visited[target] = true
	queue := []int{target}
	root := -1
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		if len(a.callers[fi]) == 0 {
			root = fi
			break
		}
		for _, c := range a.callers[fi] {
			if visited[c.caller] {
				continue
			}
			visited[c.caller] = true
			down[c.caller] = downEdge{site: c.site, callee: fi}
			queue = append(queue, c.caller)
		}
	}
	if root < 0 || root == target {
		return nil
	}
	var chain []CallFrame
	for cur := root; cur != target; {
		d := down[cur]
		callee := a.funcs[d.callee].Entry
		chain = append(chain, CallFrame{
			CallSite:    d.site,
			Callee:      callee,
			CalleeLabel: a.Prog.LabelAt(callee),
		})
		cur = d.callee
	}
	return chain
}
