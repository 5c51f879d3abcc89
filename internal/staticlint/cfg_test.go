package staticlint

import (
	"reflect"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

func TestCFGDiamond(t *testing.T) {
	// A classic if/else diamond: entry → {then, else} → join.
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "else")
	b.Movi(isa.R2, 1)
	b.Jmp("join")
	b.Label("else")
	b.Movi(isa.R2, 2)
	b.Label("join")
	b.Halt()
	g := BuildCFG(b.MustBuild())

	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want taken+fallthrough", entry.Succs)
	}
	kinds := map[EdgeKind]bool{}
	for _, e := range entry.Succs {
		kinds[e.Kind] = true
		if e.To < 0 {
			t.Fatalf("unresolved direct edge: %v", e)
		}
	}
	if !kinds[EdgeTaken] || !kinds[EdgeFallThrough] {
		t.Errorf("entry edge kinds = %v", entry.Succs)
	}
	join := g.BlockAt(b.MustBuild().MustLabel("join"))
	if join == nil {
		t.Fatal("no block at join")
	}
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v, want 2", join.Preds)
	}
	if len(join.Succs) != 0 {
		t.Errorf("HALT block has successors: %v", join.Succs)
	}
}

func TestCFGCallEdges(t *testing.T) {
	b := asm.New(0x1000)
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.Ret()
	g := BuildCFG(b.MustBuild())

	entry := g.Blocks[0]
	var haveCall, haveFall bool
	for _, e := range entry.Succs {
		switch e.Kind {
		case EdgeCall:
			haveCall = true
			if g.Blocks[e.To].Last().Op != isa.RET {
				t.Errorf("call edge lands on %v", g.Blocks[e.To].Last())
			}
		case EdgeFallThrough:
			haveFall = true
		}
	}
	if !haveCall || !haveFall {
		t.Errorf("call block edges = %v, want call+fallthrough", entry.Succs)
	}
}

func TestCFGIndirectAndGaps(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmpi(isa.R1)
	b.Org(0x1100) // unmapped gap: no fallthrough across it
	b.Label("island")
	b.Halt()
	g := BuildCFG(b.MustBuild())

	if len(g.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(g.Blocks))
	}
	first := g.Blocks[0]
	if len(first.Succs) != 1 || first.Succs[0].Kind != EdgeIndirect || first.Succs[0].To != -1 {
		t.Errorf("jmpi succs = %v, want one unresolved indirect", first.Succs)
	}
	island := g.Blocks[1]
	if len(island.Preds) != 0 {
		t.Errorf("island has preds %v; gap must break fallthrough", island.Preds)
	}
	entries := g.Entries()
	if len(entries) != 2 {
		t.Errorf("entries = %v, want both blocks", entries)
	}

	// A direct JCC, CALL or JMP to an address where no instruction
	// starts (inside the 5-byte MOVI, or in the Org gap) keeps its own
	// edge kind with To -1, and splits no block there. A gap after a
	// non-branch (the second MOVI) still ends its block, with no
	// fallthrough across it.
	b = asm.New(0x2000)
	b.Movi(isa.R1, 1)
	b.Raw(isa.Inst{Op: isa.JCC, Cond: isa.EQ, Imm: 0x2001}, 2)
	b.Raw(isa.Inst{Op: isa.CALL, Imm: 0x3000}, 5)
	b.Raw(isa.Inst{Op: isa.JMP, Imm: 0x2003}, 5)
	b.Movi(isa.R2, 2)
	b.Org(0x4000)
	b.Halt()
	g = BuildCFG(b.MustBuild())
	want := [][]Edge{
		{{To: -1, Kind: EdgeTaken}, {To: 1, Kind: EdgeFallThrough}},
		{{To: -1, Kind: EdgeCall}, {To: 2, Kind: EdgeFallThrough}},
		{{To: -1, Kind: EdgeTaken}},
		nil,
		nil,
	}
	if len(g.Blocks) != len(want) {
		t.Fatalf("got %d blocks, want %d", len(g.Blocks), len(want))
	}
	if n := len(g.Blocks[0].Insts); n != 2 {
		t.Errorf("MOVI block holds %d instructions; a target inside the MOVI must not split it", n)
	}
	for i, w := range want {
		if !reflect.DeepEqual(g.Blocks[i].Succs, w) {
			t.Errorf("block %d succs = %v, want %v", i, g.Blocks[i].Succs, w)
		}
	}
}

func TestCFGBlockOf(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 1)
	b.Movi(isa.R2, 2)
	b.Jcc(isa.EQ, "end")
	b.Org(0x1100)
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	g := BuildCFG(p)
	for _, in := range p.Insts {
		blk := g.BlockOf(in.Addr)
		if blk == nil {
			t.Fatalf("no block for %#x", in.Addr)
		}
		found := false
		for _, bi := range blk.Insts {
			if bi.Addr == in.Addr {
				found = true
			}
		}
		if !found {
			t.Errorf("block %d does not contain %#x", blk.Index, in.Addr)
		}
	}
	// No instruction starts at these: inside the first MOVI, in the Org
	// gap, before the first instruction, and past the last.
	for _, addr := range []uint64{0x1001, 0x1010, 0x0fff, p.Insts[len(p.Insts)-1].End()} {
		if blk := g.BlockAt(addr); blk != nil {
			t.Errorf("BlockAt(%#x) = block %d, want nil", addr, blk.Index)
		}
		if blk := g.BlockOf(addr); blk != nil {
			t.Errorf("BlockOf(%#x) = block %d, want nil", addr, blk.Index)
		}
	}
	// The second MOVI is inside block 0, not the start of a block.
	if blk := g.BlockAt(0x1005); blk != nil {
		t.Errorf("BlockAt(0x1005) = block %d, want nil", blk.Index)
	}
}
