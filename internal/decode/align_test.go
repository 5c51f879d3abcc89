package decode

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// jccAt builds NOP padding of pad bytes followed by a conditional jump,
// so the jump's first byte sits at offset pad of the (16-aligned) code
// origin.
func jccAt(pad int) []*isa.Inst {
	return insts(func(b *asm.Builder) {
		for pad > 15 {
			b.Nop(15)
			pad -= 15
		}
		if pad > 0 {
			b.Nop(pad)
		}
		b.Jcc(isa.EQ, "x")
		b.Label("x")
		b.Halt()
	})
}

// TestJccAlignOffsets pins the straddle rule at the three canonical
// offsets of a 16-byte predecode window: a jump starting the window
// (offset 0) and one starting the next window (offset 16) are free; a
// jump whose 2 bytes span offsets 15-16 crosses the boundary and pays
// Config.JccAlignPenalty.
func TestJccAlignOffsets(t *testing.T) {
	cfg := Skylake()
	cases := []struct {
		pad      int
		straddle bool
	}{
		{0, false},
		{15, true},
		{16, false},
	}
	for _, tc := range cases {
		list := jccAt(tc.pad)
		plan := PlanRegion(cfg, list)
		wantStalls, wantJccs := 0, 0
		if tc.straddle {
			wantStalls, wantJccs = cfg.JccAlignPenalty, 1
		}
		if plan.AlignStalls != wantStalls || plan.AlignJccs != wantJccs {
			t.Errorf("jcc at offset %d: align stalls %d / jccs %d, want %d / %d",
				tc.pad, plan.AlignStalls, plan.AlignJccs, wantStalls, wantJccs)
		}
		var jcc *isa.Inst
		for _, in := range list {
			if in.Op == isa.JCC {
				jcc = in
			}
		}
		if got := JccStraddles(cfg, jcc); got != tc.straddle {
			t.Errorf("JccStraddles(offset %d) = %v, want %v", tc.pad, got, tc.straddle)
		}
	}
}

// TestJccAlignChargedInSchedule verifies the stall lands in the
// delivery schedule itself — the object the simulator executes slot by
// slot — not just in the breakout counter: two layouts with identical
// macro-ops and predecode windows must differ by exactly the penalty.
func TestJccAlignChargedInSchedule(t *testing.T) {
	cfg := Skylake()
	// 17 bytes (2 windows), jump spanning bytes 15-16.
	straddle := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(8)
		b.Nop(7)
		b.Jcc(isa.EQ, "x")
		b.Label("x")
		b.Halt()
	}))
	// 18 bytes (2 windows), jump wholly inside the second window.
	aligned := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(8)
		b.Nop(8)
		b.Jcc(isa.EQ, "x")
		b.Label("x")
		b.Halt()
	}))
	if got, want := straddle.Cycles()-aligned.Cycles(), cfg.JccAlignPenalty; got != want {
		t.Errorf("straddling schedule %d cycles vs aligned %d: delta %d, want %d",
			straddle.Cycles(), aligned.Cycles(), got, want)
	}
	if straddle.TotalUops() != aligned.TotalUops() {
		t.Fatalf("layouts not µop-identical: %d vs %d", straddle.TotalUops(), aligned.TotalUops())
	}
}

// TestJccAlignFusedPairStillCharged: macro-fusion folds the compare and
// branch into one µop, but the predecoder sees the raw bytes — a fused
// jump straddling the boundary still stalls.
func TestJccAlignFusedPairStillCharged(t *testing.T) {
	cfg := Skylake()
	plan := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(11)
		b.Cmpi(isa.R1, 0)  // bytes 11..14
		b.Jcc(isa.EQ, "x") // bytes 15..16: straddles
		b.Label("x")
		b.Halt()
	}))
	if plan.AlignStalls != cfg.JccAlignPenalty || plan.AlignJccs != 1 {
		t.Errorf("fused straddling pair: align stalls %d / jccs %d, want %d / 1",
			plan.AlignStalls, plan.AlignJccs, cfg.JccAlignPenalty)
	}
	fused := false
	for _, slot := range plan.Slots {
		for _, u := range slot {
			if u.Fused {
				fused = true
			}
		}
	}
	if !fused {
		t.Error("pair did not macro-fuse")
	}
}

// TestJccAlignOnlyConditional: unconditional jumps (and a zeroed
// penalty, the Zen default) never stall, whatever their alignment.
func TestJccAlignOnlyConditional(t *testing.T) {
	cfg := Skylake()
	jmp := PlanRegion(cfg, insts(func(b *asm.Builder) {
		b.Nop(15)
		b.JmpShort("x") // bytes 15-16, but unconditional
		b.Label("x")
		b.Halt()
	}))
	if jmp.AlignStalls != 0 || jmp.AlignJccs != 0 {
		t.Errorf("unconditional jump charged align stalls %d", jmp.AlignStalls)
	}
	zen := Zen()
	if zen.JccAlignPenalty != 0 {
		t.Fatalf("Zen models a jcc align penalty (%d); AMD's aligned fetch does not exhibit it", zen.JccAlignPenalty)
	}
	plan := PlanRegion(zen, jccAt(15))
	if plan.AlignStalls != 0 {
		t.Errorf("zero-penalty config charged %d align stalls", plan.AlignStalls)
	}
}

// TestRegionCostSurfacesAlignStalls: the shared cost table must expose
// the alignment term per segment — cold cycles carry it, warm (DSB
// streamed) cycles do not, so the refill delta grows by exactly the
// penalty.
func TestRegionCostSurfacesAlignStalls(t *testing.T) {
	ct := NewCostTable(Skylake(), uopcache.Skylake())
	build := func(firstNop int) []*isa.Inst {
		return insts(func(b *asm.Builder) {
			b.Nop(firstNop)
			b.Nop(6)
			b.Jcc(isa.EQ, "x")
			b.Label("x")
			b.Halt()
		})
	}
	straddle := ct.Region(0x1000, 0, build(9)) // jcc at 15-16
	aligned := ct.Region(0x1000, 0, build(8))  // jcc at 14-15
	if straddle.AlignStallCycles != ct.Decode.JccAlignPenalty || straddle.AlignJccs != 1 {
		t.Errorf("straddle cost: align stalls %d / jccs %d, want %d / 1",
			straddle.AlignStallCycles, straddle.AlignJccs, ct.Decode.JccAlignPenalty)
	}
	if aligned.AlignStallCycles != 0 {
		t.Errorf("aligned cost charged %d align stalls", aligned.AlignStallCycles)
	}
	if !straddle.Cacheable || !aligned.Cacheable {
		t.Fatal("test regions must be cacheable")
	}
	if straddle.WarmCycles != aligned.WarmCycles {
		t.Errorf("warm cycles differ (%d vs %d): alignment must be MITE-only",
			straddle.WarmCycles, aligned.WarmCycles)
	}
	if got, want := straddle.RefillDelta()-aligned.RefillDelta(), ct.Decode.JccAlignPenalty; got != want {
		t.Errorf("refill delta gap %d, want the align penalty %d", got, want)
	}
}
