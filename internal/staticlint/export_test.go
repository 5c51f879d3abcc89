package staticlint

import (
	"sort"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
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
			if _, hit := cache.Lookup(0, s.addr); !hit {
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
				if _, hit := cache.Lookup(0, s.addr); !hit {
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

// ResolveIndirect reruns the value-set resolution pass over a's CFG.
func (a *Analysis) ResolveIndirect() { a.resolveIndirect() }

// ResolvedMutualProg is resolvedMutualProg: mutual recursion through
// CALLI sites the resolution pass must resolve.
var ResolvedMutualProg = resolvedMutualProg

// ReferenceCFG is the address-keyed control-flow graph BuildCFG is held
// to: blocks found through maps from block start and from every
// instruction address to the block index.
type ReferenceCFG struct {
	Blocks  []*Block
	byStart map[uint64]int
	blockOf map[uint64]int
}

// BlockAt returns the block starting at addr, or nil.
func (g *ReferenceCFG) BlockAt(addr uint64) *Block {
	if i, ok := g.byStart[addr]; ok {
		return g.Blocks[i]
	}
	return nil
}

// BlockOf returns the block containing the instruction at addr, or nil.
func (g *ReferenceCFG) BlockOf(addr uint64) *Block {
	if i, ok := g.blockOf[addr]; ok {
		return g.Blocks[i]
	}
	return nil
}

// BuildCFGReference builds the CFG literally by address: leaders in a
// map keyed by address, blocks grown one instruction at a time, edges
// and lookups through the address maps, predecessors sorted at the end.
// BuildCFG — leader marks over the instruction slice, blocks as capped
// subslices, binary search — must build the same blocks and answer
// BlockAt and BlockOf the same way.
func BuildCFGReference(p *asm.Program) *ReferenceCFG {
	g := &ReferenceCFG{byStart: map[uint64]int{}, blockOf: map[uint64]int{}}
	if len(p.Insts) == 0 {
		return g
	}
	leader := map[uint64]bool{p.Insts[0].Addr: true}
	for i, in := range p.Insts {
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			if p.At(uint64(in.Imm)) != nil {
				leader[uint64(in.Imm)] = true
			}
		}
		if i+1 < len(p.Insts) && (terminatesBlock(in) || p.Insts[i+1].Addr != in.End()) {
			leader[p.Insts[i+1].Addr] = true
		}
	}
	var cur *Block
	flush := func() {
		if cur != nil {
			cur.Index = len(g.Blocks)
			g.byStart[cur.Start()] = cur.Index
			for _, in := range cur.Insts {
				g.blockOf[in.Addr] = cur.Index
			}
			g.Blocks = append(g.Blocks, cur)
		}
	}
	for _, in := range p.Insts {
		if leader[in.Addr] {
			flush()
			cur = &Block{}
		}
		cur.Insts = append(cur.Insts, in)
	}
	flush()
	for _, b := range g.Blocks {
		last := b.Last()
		addEdge := func(to uint64, kind EdgeKind) {
			if i, ok := g.byStart[to]; ok {
				b.Succs = append(b.Succs, Edge{To: i, Kind: kind})
			} else {
				b.Succs = append(b.Succs, Edge{To: -1, Kind: kind})
			}
		}
		fallthroughOK := p.At(last.End()) != nil
		switch last.Op {
		case isa.JMP:
			addEdge(uint64(last.Imm), EdgeTaken)
		case isa.JCC, isa.CALL:
			kind := EdgeTaken
			if last.Op == isa.CALL {
				kind = EdgeCall
			}
			addEdge(uint64(last.Imm), kind)
			if fallthroughOK {
				addEdge(last.End(), EdgeFallThrough)
			}
		case isa.CALLI, isa.SYSCALL:
			b.Succs = append(b.Succs, Edge{To: -1, Kind: EdgeIndirect})
			if fallthroughOK {
				addEdge(last.End(), EdgeFallThrough)
			}
		case isa.JMPI:
			b.Succs = append(b.Succs, Edge{To: -1, Kind: EdgeIndirect})
		case isa.RET, isa.SYSRET, isa.HALT:
		default:
			if fallthroughOK {
				addEdge(last.End(), EdgeFallThrough)
			}
		}
	}
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.To >= 0 {
				g.Blocks[e.To].Preds = append(g.Blocks[e.To].Preds, b.Index)
			}
		}
	}
	for _, b := range g.Blocks {
		sort.Ints(b.Preds)
	}
	return g
}
