package staticlint

import (
	"sort"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// EdgeKind classifies a CFG edge.
type EdgeKind int

// Edge kinds.
const (
	// EdgeFallThrough continues at the next sequential instruction.
	EdgeFallThrough EdgeKind = iota
	// EdgeTaken follows a direct branch to its target.
	EdgeTaken
	// EdgeCall enters a direct call target.
	EdgeCall
	// EdgeIndirect leaves through an indirect branch or call whose
	// target is statically unknown (To is -1).
	EdgeIndirect
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeFallThrough:
		return "fallthrough"
	case EdgeTaken:
		return "taken"
	case EdgeCall:
		return "call"
	case EdgeIndirect:
		return "indirect"
	default:
		return "edge?"
	}
}

// Edge is one directed CFG edge. To is the successor block index, or
// -1 when the target is statically unknown.
type Edge struct {
	To   int
	Kind EdgeKind
}

// Block is one basic block: a maximal straight-line instruction
// sequence entered only at its head.
type Block struct {
	Index int
	Insts []*isa.Inst
	Succs []Edge
	Preds []int
}

// Start returns the address of the block's first instruction.
func (b *Block) Start() uint64 { return b.Insts[0].Addr }

// End returns the address one past the block's last instruction.
func (b *Block) End() uint64 { return b.Insts[len(b.Insts)-1].End() }

// Last returns the block's final instruction (its terminator when it
// is a control transfer).
func (b *Block) Last() *isa.Inst { return b.Insts[len(b.Insts)-1] }

// CFG is the control-flow graph of an assembled program.
type CFG struct {
	Prog   *asm.Program
	Blocks []*Block
	// byStart maps block start address → block index.
	byStart map[uint64]int
	// blockOf maps every instruction address → its block index.
	blockOf map[uint64]int
}

// BlockAt returns the block starting at addr, or nil.
func (g *CFG) BlockAt(addr uint64) *Block {
	if i, ok := g.byStart[addr]; ok {
		return g.Blocks[i]
	}
	return nil
}

// BlockOf returns the block containing the instruction at addr, or nil.
func (g *CFG) BlockOf(addr uint64) *Block {
	if i, ok := g.blockOf[addr]; ok {
		return g.Blocks[i]
	}
	return nil
}

// Entries returns the indices of blocks with no predecessors — the
// program entry and every routine only reached indirectly (through
// calls the assembler cannot resolve, or not at all). The dataflow
// engine seeds each with the entry state.
func (g *CFG) Entries() []int {
	var out []int
	for _, b := range g.Blocks {
		if len(b.Preds) == 0 {
			out = append(out, b.Index)
		}
	}
	return out
}

// terminatesBlock reports whether in ends a basic block.
func terminatesBlock(in *isa.Inst) bool {
	return in.IsBranch() || in.Op == isa.HALT
}

// BuildCFG partitions prog into basic blocks and wires branch,
// fallthrough, and call edges. Instructions are taken in address order
// (the assembler guarantees Insts is sorted); an address gap (asm.Org)
// also ends a block, with no fallthrough edge across it.
func BuildCFG(p *asm.Program) *CFG {
	g := &CFG{
		Prog:    p,
		byStart: make(map[uint64]int),
		blockOf: make(map[uint64]int),
	}
	if len(p.Insts) == 0 {
		return g
	}

	// Pass 1: leaders. The first instruction, every direct branch/call
	// target, every instruction after a terminator, and every
	// instruction after an address gap.
	leader := map[uint64]bool{p.Insts[0].Addr: true}
	for i, in := range p.Insts {
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			if p.At(uint64(in.Imm)) != nil {
				leader[uint64(in.Imm)] = true
			}
		}
		if terminatesBlock(in) && i+1 < len(p.Insts) {
			leader[p.Insts[i+1].Addr] = true
		}
		if i+1 < len(p.Insts) && p.Insts[i+1].Addr != in.End() {
			leader[p.Insts[i+1].Addr] = true
		}
	}

	// Pass 2: slice into blocks.
	var cur *Block
	flush := func() {
		if cur != nil && len(cur.Insts) > 0 {
			cur.Index = len(g.Blocks)
			g.byStart[cur.Start()] = cur.Index
			for _, in := range cur.Insts {
				g.blockOf[in.Addr] = cur.Index
			}
			g.Blocks = append(g.Blocks, cur)
		}
		cur = nil
	}
	for _, in := range p.Insts {
		if leader[in.Addr] {
			flush()
			cur = &Block{}
		}
		if cur == nil { // defensive: start a block anyway
			cur = &Block{}
		}
		cur.Insts = append(cur.Insts, in)
	}
	flush()

	// Pass 3: edges.
	for _, b := range g.Blocks {
		last := b.Last()
		addEdge := func(to uint64, kind EdgeKind) {
			if i, ok := g.byStart[to]; ok {
				b.Succs = append(b.Succs, Edge{To: i, Kind: kind})
			} else {
				b.Succs = append(b.Succs, Edge{To: -1, Kind: kind})
			}
		}
		fallthroughOK := func() bool {
			// A fallthrough edge exists only when the next address is
			// mapped (no Org gap, not the program end).
			return p.At(last.End()) != nil
		}
		switch last.Op {
		case isa.JMP:
			addEdge(uint64(last.Imm), EdgeTaken)
		case isa.JCC:
			addEdge(uint64(last.Imm), EdgeTaken)
			if fallthroughOK() {
				addEdge(last.End(), EdgeFallThrough)
			}
		case isa.CALL:
			// Control enters the callee and, on return, resumes at the
			// fall-through. The call edge carries the caller's state
			// into the callee body; the fall-through edge does NOT pass
			// the raw pre-call state — the dataflow engine applies the
			// callee's taint summary across it (see taintFlow.edge).
			addEdge(uint64(last.Imm), EdgeCall)
			if fallthroughOK() {
				addEdge(last.End(), EdgeFallThrough)
			}
		case isa.CALLI, isa.SYSCALL:
			b.Succs = append(b.Succs, Edge{To: -1, Kind: EdgeIndirect})
			if fallthroughOK() {
				addEdge(last.End(), EdgeFallThrough)
			}
		case isa.JMPI:
			b.Succs = append(b.Succs, Edge{To: -1, Kind: EdgeIndirect})
		case isa.RET, isa.SYSRET, isa.HALT:
			// No static successors.
		default:
			if fallthroughOK() {
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
