package frontend

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/bpu"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"
)

// harness builds a standalone fetch engine over a program. The
// instruction cache is pre-warmed so tests observe fetch-engine timing
// rather than DRAM fill latency.
func harness(p *asm.Program) (*FrontEnd, *uopcache.Cache, *perfctr.Counters) {
	uc := uopcache.New(uopcache.Skylake())
	hier := mem.NewHierarchy()
	bp := bpu.New()
	ctr := &perfctr.Counters{}
	fe := New(Config{Decode: decode.Skylake()}, 0, uc, hier, bp, ctr, NewMemo(decode.Skylake(), uc.Config()))
	fe.SetProgram(p)
	for _, in := range p.Insts {
		hier.AccessInst(in.Addr)
		hier.AccessInst(in.End())
	}
	return fe, uc, ctr
}

// drain ticks the engine up to n cycles, popping everything into a
// slice.
func drain(fe *FrontEnd, cycles int) []isa.Uop {
	var out []isa.Uop
	for i := 0; i < cycles; i++ {
		fe.Tick()
		for u := fe.Pop(); u != nil; u = fe.Pop() {
			out = append(out, *u)
		}
	}
	return out
}

func TestFetchStraightLine(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(4)
	b.Nop(4)
	b.Movi(isa.R1, 7)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 50)
	if len(uops) != 4 {
		t.Fatalf("delivered %d µops, want 4", len(uops))
	}
	if uops[2].Op != isa.MOVI || uops[2].Imm != 7 {
		t.Errorf("µop 2 = %+v", uops[2])
	}
	if uops[3].Op != isa.HALT {
		t.Errorf("last µop %v", uops[3].Op)
	}
}

func TestFetchFollowsJumps(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmp("far")
	b.Org(0x3000)
	b.Label("far")
	b.Nop(5)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 50)
	if len(uops) != 3 {
		t.Fatalf("delivered %d µops", len(uops))
	}
	if uops[1].MacroAddr != 0x3000 {
		t.Errorf("fetch did not follow the jump: %#x", uops[1].MacroAddr)
	}
}

func TestSecondFetchStreamsFromDSB(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 6; i++ {
		b.Nop(5)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 60)
	miteCold := ctr.Get(perfctr.MITEUops)
	if miteCold == 0 {
		t.Fatal("cold fetch did not use the legacy pipeline")
	}
	fe.Redirect(p.Entry)
	drain(fe, 60)
	if got := ctr.Get(perfctr.MITEUops); got != miteCold {
		t.Errorf("warm fetch decoded %d more µops via MITE", got-miteCold)
	}
	if ctr.Get(perfctr.DSBUops) == 0 {
		t.Error("warm fetch delivered nothing from the µop cache")
	}
}

func TestIDQBackpressure(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 100; i++ {
		b.Nop(1)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 200; i++ {
		fe.Tick()
		if fe.IDQLen() > IDQCapacity {
			t.Fatalf("IDQ overflowed: %d", fe.IDQLen())
		}
	}
	if fe.IDQLen() != IDQCapacity {
		t.Errorf("IDQ not full under backpressure: %d", fe.IDQLen())
	}
}

func TestRedirectClearsIDQ(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 10; i++ {
		b.Nop(1)
	}
	b.Halt()
	b.Org(0x2000)
	b.Label("alt")
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 10; i++ {
		fe.Tick()
	}
	if fe.IDQLen() == 0 {
		t.Fatal("nothing buffered")
	}
	fe.Redirect(p.MustLabel("alt"))
	if fe.IDQLen() != 0 {
		t.Error("IDQ survived redirect")
	}
	uops := drain(fe, 20)
	if len(uops) != 1 || uops[0].Op != isa.HALT {
		t.Errorf("post-redirect stream %+v", uops)
	}
}

func TestUnmappedFetchStalls(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(1)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(0x9999) // unmapped
	uops := drain(fe, 20)
	if len(uops) != 0 {
		t.Errorf("unmapped fetch delivered %d µops", len(uops))
	}
	// A redirect to valid code recovers.
	fe.Redirect(p.Entry)
	if uops := drain(fe, 20); len(uops) != 2 {
		t.Errorf("recovery delivered %d µops", len(uops))
	}
}

func TestBranchAnnotations(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmp("next")
	b.Label("next")
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	uops := drain(fe, 30)
	if len(uops) < 1 {
		t.Fatal("nothing delivered")
	}
	jmp := uops[0]
	if !jmp.PredTaken || jmp.PredTarget != p.MustLabel("next") {
		t.Errorf("jump annotation %+v", jmp)
	}
}

func TestAddStallDelaysDelivery(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(1)
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	fe.AddStall(10)
	if count := len(drain(fe, 10)); count != 0 {
		t.Errorf("%d µops delivered during stall", count)
	}
	if uops := drain(fe, 30); len(uops) != 2 {
		t.Errorf("post-stall delivery %d", len(uops))
	}
}

func TestDSBMissSwitchCounted(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(5)
	b.Halt()
	p := b.MustBuild()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 30)
	if ctr.Get(perfctr.DSB2MITESwitches) == 0 {
		t.Error("cold fetch recorded no DSB→MITE switch")
	}
	if ctr.Get(perfctr.DSBMissPenaltyCycles) == 0 {
		t.Error("cold fetch recorded no switch penalty")
	}
}

func TestPopPartial(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 8; i++ {
		b.Nop(1)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, _ := harness(p)
	fe.Redirect(p.Entry)
	for i := 0; i < 20 && fe.IDQLen() < 4; i++ {
		fe.Tick()
	}
	n := fe.IDQLen()
	first, second := *fe.Pop(), *fe.Pop()
	if first.MacroAddr != 0x1000 || second.MacroAddr != 0x1001 {
		t.Error("pop order wrong")
	}
	if fe.IDQLen() != n-2 {
		t.Errorf("IDQ holds %d µops after popping 2 of %d", fe.IDQLen(), n)
	}
}

// lsdHarness builds a fetch engine with the loop stream detector
// enabled. The loop branch is pre-trained taken (standing in for the
// backend's resolution feedback, which these standalone-frontend tests
// don't have).
func lsdHarness(p *asm.Program, capacity int) (*FrontEnd, *uopcache.Cache, *perfctr.Counters) {
	uc := uopcache.New(uopcache.Skylake())
	hier := mem.NewHierarchy()
	bp := bpu.New()
	ctr := &perfctr.Counters{}
	cfg := Config{Decode: decode.Skylake(), LSDCapacity: capacity}
	fe := New(cfg, 0, uc, hier, bp, ctr, NewMemo(cfg.Decode, uc.Config()))
	fe.SetProgram(p)
	for _, in := range p.Insts {
		hier.AccessInst(in.Addr)
		hier.AccessInst(in.End())
		if in.Op == isa.JCC {
			bp.UpdateDirection(in.Addr, true)
			bp.UpdateDirection(in.Addr, true)
		}
	}
	return fe, uc, ctr
}

// loopProg builds a tight backward loop (taken while the predictor says
// so).
func loopProg() *asm.Program {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Nop(4)
	b.Nop(4)
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestLSDLocksLoop(t *testing.T) {
	p := loopProg()
	fe, uc, ctr := lsdHarness(p, 64)
	fe.Redirect(p.Entry)
	// Train the loop branch taken first so fetch keeps looping, then
	// let the LSD observe a repeat. Drive ticks and drain.
	drain(fe, 200)
	if ctr.Get(perfctr.LSDUops) == 0 {
		t.Fatal("LSD never locked the loop")
	}
	// Once locked, µop cache lookups stop growing.
	lookups := uc.Stats().Lookups
	drain(fe, 100)
	if got := uc.Stats().Lookups; got != lookups {
		t.Errorf("µop cache still probed during LSD replay (+%d lookups)", got-lookups)
	}
}

func TestLSDDisabledByDefault(t *testing.T) {
	p := loopProg()
	fe, _, ctr := harness(p)
	fe.Redirect(p.Entry)
	drain(fe, 200)
	if ctr.Get(perfctr.LSDUops) != 0 {
		t.Error("LSD active on the default (SKL150) configuration")
	}
}

func TestLSDRedirectUnlocks(t *testing.T) {
	p := loopProg()
	fe, _, ctr := lsdHarness(p, 64)
	fe.Redirect(p.Entry)
	drain(fe, 200)
	if ctr.Get(perfctr.LSDUops) == 0 {
		t.Fatal("LSD never locked")
	}
	// A redirect (as the loop-exit mispredict recovery would issue)
	// must unlock the LSD and resume normal fetch.
	fe.Redirect(p.MustLabel("loop"))
	before := ctr.Get(perfctr.LSDUops)
	drain(fe, 1)
	// First post-redirect group refetches normally (the log was
	// cleared), so LSD µops must not continue immediately.
	if got := ctr.Get(perfctr.LSDUops); got != before {
		t.Errorf("LSD delivered %d µops immediately after redirect", got-before)
	}
}

func TestLSDCapacityRespected(t *testing.T) {
	p := loopProg()                // 5 µops per iteration (fused cmp+jcc)
	fe, _, ctr := lsdHarness(p, 2) // too small for the loop
	fe.Redirect(p.Entry)
	drain(fe, 200)
	if ctr.Get(perfctr.LSDUops) != 0 {
		t.Error("LSD locked a loop larger than its capacity")
	}
}

// TestLSDRecordDropsInterruptedGroup pins that a redirect discards the
// µops a MITE refill delivered before it was interrupted: the next
// group the LSD records, and so the loop it locks, must hold only µops
// delivered after the redirect.
func TestLSDRecordDropsInterruptedGroup(t *testing.T) {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Nop(4)
	b.Nop(4)
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	b.Org(0x2000)
	b.Label("other")
	for i := 0; i < 8; i++ {
		b.Nop(1)
	}
	b.Halt()
	p := b.MustBuild()
	fe, _, ctr := lsdHarness(p, 64)

	fe.Redirect(p.MustLabel("other"))
	for i := 0; i < 20 && fe.IDQLen() == 0; i++ {
		fe.Tick()
	}
	if fe.IDQLen() == 0 || !fe.InMITE() {
		t.Fatalf("set-up: MITE refill of 0x2000 not part-way (IDQ %d, in MITE %v)", fe.IDQLen(), fe.InMITE())
	}
	fe.Redirect(p.MustLabel("loop"))
	uops := drain(fe, 200)
	if ctr.Get(perfctr.LSDUops) == 0 {
		t.Fatal("LSD never locked the loop")
	}
	for _, u := range uops {
		if u.Path == isa.PathLSD && u.MacroAddr >= p.MustLabel("other") {
			t.Fatalf("LSD replays µop of %#x from the interrupted group", u.MacroAddr)
		}
	}
}
