package decode

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

func insts(build func(b *asm.Builder)) []*isa.Inst {
	b := asm.New(0x1000)
	build(b)
	return b.MustBuild().Insts
}

func TestExpandCounts(t *testing.T) {
	list := insts(func(b *asm.Builder) {
		b.Nop(1)
		b.Call("x")
		b.Label("x")
		b.Ret()
		b.Cpuid()
		b.Msrom(10)
	})
	want := []int{1, 2, 2, 6, 10}
	for i, in := range list {
		if got := len(Expand(in)); got != want[i] {
			t.Errorf("%v expands to %d µops, want %d", in.Op, got, want[i])
		}
	}
}

func TestExpandCarriesOperands(t *testing.T) {
	list := insts(func(b *asm.Builder) { b.Movi64(isa.R3, 77) })
	u := Expand(list[0])
	if len(u) != 1 || u[0].Dst != isa.R3 || u[0].Imm != 77 || u[0].Slots != 2 {
		t.Errorf("expanded %+v", u)
	}
	if u[0].MacroAddr != 0x1000 || u[0].MacroLen != 10 {
		t.Errorf("macro identity %#x/%d", u[0].MacroAddr, u[0].MacroLen)
	}
}

func TestMacroFusion(t *testing.T) {
	list := insts(func(b *asm.Builder) {
		b.Cmpi(isa.R1, 5)
		b.Jcc(isa.EQ, "x")
		b.Label("x")
		b.Halt()
	})
	plan := PlanRegion(Skylake(), list)
	var fused *isa.Uop
	total := 0
	for _, slot := range plan.Slots {
		for i := range slot {
			total++
			if slot[i].Fused {
				fused = &slot[i]
			}
		}
	}
	// cmp+jcc fuse into one µop; halt is the other.
	if total != 2 || fused == nil {
		t.Fatalf("total µops %d, fused %v", total, fused)
	}
	if fused.FusedOp != isa.CMP || !fused.FusedHasImm || fused.FusedImm != 5 {
		t.Errorf("fused compare half %+v", fused)
	}
	if fused.Op != isa.JCC || fused.Cond != isa.EQ {
		t.Errorf("fused branch half %+v", fused)
	}
	// The fused µop spans both macro-ops.
	if fused.MacroAddr != list[0].Addr ||
		fused.MacroAddr+uint64(fused.MacroLen) != list[1].End() {
		t.Errorf("fused span %#x+%d", fused.MacroAddr, fused.MacroLen)
	}
	// BranchPC still names the branch for predictor indexing.
	if fused.BranchPC != list[1].Addr {
		t.Errorf("fused BranchPC %#x, want %#x", fused.BranchPC, list[1].Addr)
	}
}

func TestNoFusionAcrossGap(t *testing.T) {
	// CMP and JCC that are not adjacent must not fuse.
	list := insts(func(b *asm.Builder) {
		b.Cmpi(isa.R1, 5)
		b.Nop(1)
		b.Jcc(isa.EQ, "x")
		b.Label("x")
		b.Halt()
	})
	plan := PlanRegion(Skylake(), list)
	for _, slot := range plan.Slots {
		for _, u := range slot {
			if u.Fused {
				t.Error("non-adjacent pair fused")
			}
		}
	}
}

func TestDecodeWidthLimit(t *testing.T) {
	cfg := Skylake()
	list := insts(func(b *asm.Builder) {
		for i := 0; i < 10; i++ {
			b.Nop(1)
		}
	})
	plan := PlanRegion(cfg, list)
	// 10 simple µops at 5/cycle (1 complex + 4 simple decoders) need
	// exactly 2 decode cycles after predecode.
	decodeCycles := 0
	for _, slot := range plan.Slots {
		if len(slot) > 0 {
			decodeCycles++
			if len(slot) > cfg.DecodeWidth {
				t.Errorf("slot of %d µops exceeds width %d", len(slot), cfg.DecodeWidth)
			}
		}
	}
	if decodeCycles != 2 {
		t.Errorf("decode cycles %d, want 2", decodeCycles)
	}
}

func TestOneComplexDecoderPerCycle(t *testing.T) {
	list := insts(func(b *asm.Builder) {
		b.Call("a") // 2 µops: complex
		b.Label("a")
		b.Call("b") // 2 µops: complex — must take the next cycle
		b.Label("b")
		b.Halt()
	})
	plan := PlanRegion(Skylake(), list)
	for _, slot := range plan.Slots {
		complexOps := 0
		for _, u := range slot {
			if u.Index == 0 && u.Count > 1 {
				complexOps++
			}
		}
		if complexOps > 1 {
			t.Error("two complex macro-ops decoded in one cycle")
		}
	}
}

func TestLCPStalls(t *testing.T) {
	cfg := Skylake()
	plain := PlanRegion(cfg, insts(func(b *asm.Builder) { b.Nop(14); b.Nop(14) }))
	lcp := PlanRegion(cfg, insts(func(b *asm.Builder) { b.NopLCP(14); b.NopLCP(14) }))
	if lcp.LCPStalls != 2*LCPPenalty {
		t.Errorf("LCP stalls %d, want %d", lcp.LCPStalls, 2*LCPPenalty)
	}
	if lcp.Cycles() <= plain.Cycles() {
		t.Errorf("LCP plan (%d cycles) not slower than plain (%d)", lcp.Cycles(), plain.Cycles())
	}
}

func TestMSROMExclusive(t *testing.T) {
	cfg := Skylake()
	plan := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(1)
		b.Msrom(10)
		b.Nop(1)
	}))
	if plan.MSROMUops != 10 || plan.MITEUops != 2 {
		t.Errorf("MSROM %d MITE %d", plan.MSROMUops, plan.MITEUops)
	}
	// MSROM slots deliver at most MSROMWidth and never mix with
	// decoder output.
	for _, slot := range plan.Slots {
		ms, plainOps := 0, 0
		for _, u := range slot {
			if u.Path == isa.PathMSROM {
				ms++
			} else {
				plainOps++
			}
		}
		if ms > 0 && plainOps > 0 {
			t.Error("MSROM µops share a cycle with decoder µops")
		}
		if ms > MSROMWidth {
			t.Errorf("MSROM slot of %d exceeds width %d", ms, MSROMWidth)
		}
	}
}

func TestPredecodeCycles(t *testing.T) {
	cfg := Skylake()
	// 32 bytes of code = 2 predecode windows = 2 leading stall cycles.
	plan := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(15)
		b.Nop(15)
		b.Nop(2)
	}))
	leading := 0
	for _, slot := range plan.Slots {
		if len(slot) != 0 {
			break
		}
		leading++
	}
	if leading != 2 {
		t.Errorf("predecode stall cycles %d, want 2", leading)
	}
}

func TestMacrosForTraceBuilder(t *testing.T) {
	plan := PlanRegion(Skylake(), insts(func(b *asm.Builder) {
		b.Pause()
		b.Jmp("x")
		b.Label("x")
		b.Halt()
	}))
	if len(plan.Macros) != 3 {
		t.Fatalf("macros %d", len(plan.Macros))
	}
	if !plan.Macros[0].Uncacheable {
		t.Error("PAUSE not marked uncacheable")
	}
	if !plan.Macros[1].UncondJump || !plan.Macros[1].Branch {
		t.Error("JMP not classified")
	}
}

func TestEmptyPlan(t *testing.T) {
	plan := PlanRegion(Skylake(), nil)
	if plan.TotalUops() != 0 || plan.Cycles() != 0 {
		t.Errorf("empty plan %+v", plan)
	}
}
