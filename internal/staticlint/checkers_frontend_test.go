package staticlint

import (
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
)

// alignVictim builds a secret branch whose taken path holds a
// window-straddling conditional jump (offset 15 of a 16-aligned
// region) and whose fall-through path holds an aligned one — equal
// instruction mix, divergent alignment.
func alignVictim() *asm.Program {
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)      // 0x1000..0x1003
	b.Jcc(isa.NE, "taken") // 0x1004..0x1005: the secret branch
	b.Jmp("fall")

	b.Org(0x1100) // fall path: jcc at window offset 12 (no straddle)
	b.Label("fall")
	b.Nop(12)
	b.Jcc(isa.EQ, "fexit")
	b.Label("fexit")
	b.Halt()

	b.Org(0x1200) // taken path: jcc at window offset 15 (straddles)
	b.Label("taken")
	b.Nop(12)
	b.Nop(3)
	b.Jcc(isa.EQ, "texit")
	b.Label("texit")
	b.Halt()
	return b.MustBuild()
}

func TestJumpAlignmentCheckerFires(t *testing.T) {
	p := alignVictim()
	spec := Spec{SecretRegs: []isa.Reg{isa.R5}}
	cfg := DefaultConfig()
	r := Lint(p, spec, cfg)

	var hit *Finding
	for i, f := range r.ByChecker("secret-dependent-jump-alignment") {
		if f.Addr == 0x1004 {
			hit = &r.ByChecker("secret-dependent-jump-alignment")[i]
		}
	}
	if hit == nil {
		t.Fatalf("no jump-alignment finding for branch 0x1004: %v", r.Findings)
	}
	if want := cfg.Decode.JccAlignPenalty; hit.AlignDeltaCycles != want {
		t.Errorf("align delta %+d, want %+d", hit.AlignDeltaCycles, want)
	}
	if hit.TakenCost == nil || hit.FallCost == nil {
		t.Fatal("finding carries no path costs")
	}
	if hit.TakenCost.AlignJccs != 1 || hit.FallCost.AlignJccs != 0 {
		t.Errorf("straddle counts taken %d / fall %d, want 1 / 0",
			hit.TakenCost.AlignJccs, hit.FallCost.AlignJccs)
	}
	if hit.Severity != SevWarning {
		t.Errorf("severity %v, want warning", hit.Severity)
	}
}

func TestJumpAlignmentCheckerDisabledWithoutPenalty(t *testing.T) {
	p := alignVictim()
	spec := Spec{SecretRegs: []isa.Reg{isa.R5}}
	cfg := DefaultConfig()
	cfg.Decode = profile.Zen().Decode // no alignment effect on the modelled part
	r := Lint(p, spec, cfg)
	if n := len(r.ByChecker("secret-dependent-jump-alignment")); n != 0 {
		t.Fatalf("alignment findings on a zero-penalty frontend: %v", r.Findings)
	}
}

// switchVictim builds a secret branch whose taken path runs through an
// uncacheable region (21 µops in 32 bytes, over the 3-line cap) while
// the fall-through path stays fully cacheable.
func switchVictim() *asm.Program {
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "taken")
	b.Jmp("fall")

	b.Org(0x1100)
	b.Label("fall")
	b.Nop(15)
	b.Nop(15)
	b.Nop(2)
	b.Halt()

	b.Org(0x1200)
	b.Label("taken")
	for i := 0; i < 20; i++ {
		b.Nop(1)
	}
	b.Nop(12)
	b.Halt()
	return b.MustBuild()
}

func TestSwitchPointCheckerFires(t *testing.T) {
	p := switchVictim()
	spec := Spec{SecretRegs: []isa.Reg{isa.R5}}
	cfg := DefaultConfig()
	r := Lint(p, spec, cfg)

	var hit *Finding
	for i, f := range r.ByChecker("dsb-mite-switch") {
		if f.Addr == 0x1004 {
			hit = &r.ByChecker("dsb-mite-switch")[i]
		}
	}
	if hit == nil {
		t.Fatalf("no switch-point finding for branch 0x1004: %v", r.Findings)
	}
	if hit.TakenCost.WarmSwitchPoints != 1 || hit.FallCost.WarmSwitchPoints != 0 {
		t.Errorf("warm switch points taken %d / fall %d, want 1 / 0",
			hit.TakenCost.WarmSwitchPoints, hit.FallCost.WarmSwitchPoints)
	}
	bubble := 1 + cfg.UopCache.SwitchPenalty
	if want := 1 * bubble; hit.SwitchDeltaCycles != want {
		t.Errorf("switch delta %+d, want %+d", hit.SwitchDeltaCycles, want)
	}
}

// TestSwitchPointCounting pins the per-path switch-point bookkeeping on
// hand-built regions: three contiguous regions, the middle one
// uncacheable, walked as one straight-line path.
func TestSwitchPointCounting(t *testing.T) {
	b := asm.New(0x1000)
	b.Nop(15) // region 0x1000: 3 µops, cacheable
	b.Nop(15)
	b.Nop(2)
	for i := 0; i < 20; i++ { // region 0x1020: 21 µops, uncacheable
		b.Nop(1)
	}
	b.Nop(12)
	b.Halt() // region 0x1040
	p := b.MustBuild()

	a := Analyze(p, Spec{}, DefaultConfig())
	pc := a.CostRanges(a.FetchRanges(0x1000, 0))
	if pc.ColdSwitchPoints != 3 {
		t.Errorf("cold switch points %d, want one per segment (3)", pc.ColdSwitchPoints)
	}
	if pc.WarmSwitchPoints != 1 {
		t.Errorf("warm switch points %d, want one per uncacheable segment (1)", pc.WarmSwitchPoints)
	}
	if pc.UncacheableRegions != 1 {
		t.Errorf("uncacheable regions %d, want 1", pc.UncacheableRegions)
	}
	if pc.AlignStallCycles != 0 || pc.AlignJccs != 0 {
		t.Errorf("nop-only path charged align stalls %d", pc.AlignStallCycles)
	}
}

func TestSelectCheckers(t *testing.T) {
	got, err := SelectCheckers([]string{"dsb-mite-switch", "secret-dependent-branch"})
	if err != nil {
		t.Fatal(err)
	}
	// Report order is preserved regardless of request order.
	if len(got) != 2 || got[0].Name() != "secret-dependent-branch" || got[1].Name() != "dsb-mite-switch" {
		names := make([]string, len(got))
		for i, c := range got {
			names[i] = c.Name()
		}
		t.Fatalf("selected %v", names)
	}
	if _, err := SelectCheckers([]string{"no-such-checker"}); err == nil {
		t.Fatal("unknown checker name accepted")
	}
	all, err := SelectCheckers([]string{})
	if err != nil || len(all) != 0 {
		t.Fatalf("empty selection: %v, %v", all, err)
	}
}

// TestSelectCheckersMultiUnknownDeterministic pins the multi-unknown
// error contract: every unknown name is reported, sorted, in one error
// — not whichever single name a map iteration happened to yield first.
func TestSelectCheckersMultiUnknownDeterministic(t *testing.T) {
	names := []string{"zzz-bogus", "secret-dependent-branch", "aaa-bogus", "mmm-bogus"}
	want := `staticlint: unknown checkers "aaa-bogus", "mmm-bogus", "zzz-bogus"`
	for i := 0; i < 20; i++ {
		_, err := SelectCheckers(names)
		if err == nil {
			t.Fatal("unknown checker names accepted")
		}
		if got := err.Error(); !strings.HasPrefix(got, want) {
			t.Fatalf("run %d: error %q, want prefix %q", i, got, want)
		}
	}
	// A single unknown name keeps the singular form.
	_, err := SelectCheckers([]string{"only-bogus"})
	if err == nil || !strings.HasPrefix(err.Error(), `staticlint: unknown checker "only-bogus"`) {
		t.Fatalf("single unknown: %v", err)
	}
}
