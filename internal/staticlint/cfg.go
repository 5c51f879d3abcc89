package staticlint

import (
	"cmp"
	"slices"

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
// -1 when no block starts at the target: an indirect transfer whose
// target is statically unknown, or a direct JMP, JCC or CALL to an
// address where no instruction starts (such a target splits no block).
type Edge struct {
	To   int
	Kind EdgeKind
}

// Block is one basic block: a maximal straight-line instruction
// sequence entered only at its head. Insts is a capped subslice of the
// program's Insts, so appending to it never writes the program.
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

// CFG is the control-flow graph of an assembled program. Blocks are
// contiguous runs of Prog.Insts in address order, so a block's index is
// its name in every per-analysis table, and an address becomes a block
// only here, at the API edge.
type CFG struct {
	Prog   *asm.Program
	Blocks []*Block
}

// instAddr and blockStart compare instructions and blocks with an address
// for binary search.
func instAddr(in *isa.Inst, addr uint64) int { return cmp.Compare(in.Addr, addr) }
func blockStart(b *Block, addr uint64) int   { return cmp.Compare(b.Start(), addr) }

// BlockAt returns the block starting at addr, or nil.
func (g *CFG) BlockAt(addr uint64) *Block {
	if i, ok := slices.BinarySearchFunc(g.Blocks, addr, blockStart); ok {
		return g.Blocks[i]
	}
	return nil
}

// BlockOf returns the block containing the instruction at addr, or nil
// when no instruction starts at addr.
func (g *CFG) BlockOf(addr uint64) *Block {
	i, ok := slices.BinarySearchFunc(g.Blocks, addr, blockStart)
	if !ok {
		i-- // the last block starting below addr is the only candidate
	}
	if i < 0 {
		return nil
	}
	if _, ok := slices.BinarySearchFunc(g.Blocks[i].Insts, addr, instAddr); !ok {
		return nil
	}
	return g.Blocks[i]
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
	g := &CFG{Prog: p}
	insts := p.Insts

	// Pass 1: leaders besides the first instruction. Every direct
	// branch/call target, every instruction after a terminator, and
	// every instruction after an address gap.
	leader := make([]bool, len(insts))
	for i, in := range insts {
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			if j, ok := slices.BinarySearchFunc(insts, uint64(in.Imm), instAddr); ok {
				leader[j] = true
			}
		}
		if j := i + 1; j < len(insts) && (terminatesBlock(in) || insts[j].Addr != in.End()) {
			leader[j] = true
		}
	}

	// Pass 2: slice into blocks, each a capped run of insts from one
	// leader to the next (the first instruction always leads).
	for i := 0; i < len(insts); {
		j := i + 1
		for j < len(insts) && !leader[j] {
			j++
		}
		g.Blocks = append(g.Blocks, &Block{Index: len(g.Blocks), Insts: insts[i:j:j]})
		i = j
	}

	// Pass 3: edges.
	for _, b := range g.Blocks {
		last := b.Last()
		addEdge := func(to uint64, kind EdgeKind) {
			e := Edge{To: -1, Kind: kind}
			if t := g.BlockAt(to); t != nil {
				e.To = t.Index
			}
			b.Succs = append(b.Succs, e)
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
	// Blocks are visited in index order, so every Preds list comes out
	// ascending.
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.To >= 0 {
				g.Blocks[e.To].Preds = append(g.Blocks[e.To].Preds, b.Index)
			}
		}
	}
	return g
}
