package staticlint

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// vpdSpec declares the victim layout's secrets.
func vpdSpec(l victim.Layout) Spec {
	return Spec{
		SecretRanges: []MemRange{
			{Start: l.SecretBase, End: l.SecretBase + uint64(l.ArrayLen)},
			{Start: l.Secret2Addr, End: l.Secret2Addr + 8},
		},
	}
}

// tagBranchAddr locates the secret-dependent tag branch (the JCC whose
// target is vpd_large_path).
func tagBranchAddr(t *testing.T, p *asm.Program) uint64 {
	t.Helper()
	target := p.MustLabel("vpd_large_path")
	for _, in := range p.Insts {
		if in.Op == isa.JCC && uint64(in.Imm) == target {
			return in.Addr
		}
	}
	t.Fatal("tag branch not found")
	return 0
}

func TestVPDSecretBranchFlagged(t *testing.T) {
	l := victim.DefaultLayout()
	p := victim.BuildPCIVPD(l)
	r := Lint(p, vpdSpec(l), DefaultConfig())

	tag := tagBranchAddr(t, p)
	found := false
	for _, f := range r.ByChecker("secret-dependent-branch") {
		if f.Addr == tag {
			found = true
			if f.Severity != SevError {
				t.Errorf("tag branch severity = %v, want error", f.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("tag branch %#x not flagged; findings: %v", tag, r.Findings)
	}
}

func TestVPDFootprintDivergenceFlagged(t *testing.T) {
	l := victim.DefaultLayout()
	p := victim.BuildPCIVPD(l)
	r := Lint(p, vpdSpec(l), DefaultConfig())

	tag := tagBranchAddr(t, p)
	var hit *Finding
	for i, f := range r.ByChecker("dsb-footprint-divergence") {
		if f.Addr == tag {
			hit = &r.ByChecker("dsb-footprint-divergence")[i]
		}
	}
	if hit == nil {
		t.Fatalf("no divergence finding for tag branch %#x: %v", tag, r.Findings)
	}
	if len(hit.DivergentSets) == 0 {
		t.Error("divergence finding lists no divergent sets")
	}
	if len(hit.TakenFootprint) == 0 || len(hit.FallFootprint) == 0 {
		t.Errorf("footprints missing: taken %v fall %v", hit.TakenFootprint, hit.FallFootprint)
	}
}

// TestVPDGadgetCheckerReproducesCensus requires a µop-cache gadget in
// the full pci-vpd victim and in the bare pci_vpd_find_tag-style
// routine (the Listing 4 victim alone has no dependent branch, but this
// routine branches on the guarded tag load).
func TestVPDGadgetCheckerReproducesCensus(t *testing.T) {
	l := victim.DefaultLayout()
	b := asm.New(0x20000)
	victim.PCIVPDStyleGadget(b, l)
	b.Label("vpd_large")
	b.Ret()
	b.Label("vpd_small")
	b.Ret()
	for name, p := range map[string]*asm.Program{
		"pci-vpd":      victim.BuildPCIVPD(l),
		"vpd-find-tag": b.MustBuild(),
	} {
		t.Run(name, func(t *testing.T) {
			hits := ScanGadgets(p, DefaultConfig())
			if countGadgets(hits)[GadgetUopCache] == 0 {
				t.Errorf("gadget checker missed the vpd µop-cache gadget: %v", hits)
			}
		})
	}
}

func TestIdenticalPathsNoDivergence(t *testing.T) {
	// Both sides of the secret branch jump to the same code: no
	// footprint divergence, even though the branch itself is flagged.
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "same")
	b.Label("same")
	b.Movi(isa.R0, 1)
	b.Halt()
	p := b.MustBuild()
	spec := Spec{SecretRegs: []isa.Reg{isa.R5}}
	r := Lint(p, spec, DefaultConfig())
	if n := len(r.ByChecker("secret-dependent-branch")); n != 1 {
		t.Fatalf("secret branch findings = %d, want 1", n)
	}
	if n := len(r.ByChecker("dsb-footprint-divergence")); n != 0 {
		t.Fatalf("divergence on identical paths: %v", r.Findings)
	}
}

func TestDivergenceOnDisjointPaths(t *testing.T) {
	// The two sides live in different 32-byte regions: divergence.
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "far")
	b.Movi(isa.R0, 1)
	b.Halt()
	b.Align(512)
	b.Label("far")
	b.Movi(isa.R0, 2)
	b.Movi(isa.R1, 3)
	b.Halt()
	p := b.MustBuild()
	r := Lint(p, Spec{SecretRegs: []isa.Reg{isa.R5}}, DefaultConfig())
	fs := r.ByChecker("dsb-footprint-divergence")
	if len(fs) != 1 {
		t.Fatalf("divergence findings = %v, want 1", fs)
	}
	if len(fs[0].DivergentSets) == 0 {
		t.Error("no divergent sets listed")
	}
}

func TestMITEAmplifierChecker(t *testing.T) {
	// The taken path carries LCP-stalling NOPs and a microcoded
	// macro-op; the fallthrough is plain. Only the amplified path is
	// reported.
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "amp")
	b.Movi(isa.R0, 1)
	b.Halt()
	b.Align(256)
	b.Label("amp")
	b.NopLCP(4)
	b.NopLCP(4)
	b.Msrom(8)
	b.Halt()
	p := b.MustBuild()
	r := Lint(p, Spec{SecretRegs: []isa.Reg{isa.R5}}, DefaultConfig())
	fs := r.ByChecker("mite-amplifier")
	if len(fs) != 1 {
		t.Fatalf("amplifier findings = %v, want 1", fs)
	}
	if fs[0].Severity != SevWarning {
		t.Errorf("severity = %v, want warning", fs[0].Severity)
	}
}

func TestNoSecretsNoFindings(t *testing.T) {
	// Without secret declarations, only the transient gadget checkers
	// can fire; a clean constant-time program reports nothing.
	b := asm.New(0x1000)
	b.Movi(isa.R1, 5)
	b.Addi(isa.R1, 7)
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	r := Lint(b.MustBuild(), Spec{}, DefaultConfig())
	if len(r.Findings) != 0 {
		t.Fatalf("findings on clean program: %v", r.Findings)
	}
}

func TestReportOrderingAndFilter(t *testing.T) {
	l := victim.DefaultLayout()
	p := victim.BuildPCIVPD(l)
	r := Lint(p, vpdSpec(l), DefaultConfig())
	for i := 1; i < len(r.Findings); i++ {
		a, b := r.Findings[i-1], r.Findings[i]
		if a.Addr > b.Addr || (a.Addr == b.Addr && a.Checker > b.Checker) {
			t.Fatalf("findings unsorted at %d: %v then %v", i, a, b)
		}
	}
	if r.MaxSeverity() != SevError {
		t.Errorf("max severity = %v, want error", r.MaxSeverity())
	}
	errOnly := r.Filter(SevError)
	for _, f := range errOnly.Findings {
		if f.Severity < SevError {
			t.Errorf("filter leaked %v", f)
		}
	}
	if len(errOnly.Findings) == 0 || len(errOnly.Findings) > len(r.Findings) {
		t.Errorf("filter sizes: %d of %d", len(errOnly.Findings), len(r.Findings))
	}
}

func TestWalkPathFollowsCallsAndReturns(t *testing.T) {
	b := asm.New(0x1000)
	b.Label("start")
	b.Movi(isa.R1, 1)
	b.Call("fn")
	b.Halt()
	b.Align(128)
	b.Label("fn")
	b.Movi(isa.R2, 2)
	b.Ret()
	p := b.MustBuild()
	a := Analyze(p, Spec{}, DefaultConfig())

	// From the caller: the walk enters the callee and returns through
	// its RET to the call's return site, ending at HALT — three ranges
	// (caller prefix, callee body, return site).
	info := a.walkPath(p.MustLabel("start"), 32)
	if len(info.Ranges) != 3 {
		t.Fatalf("ranges = %v, want caller + callee + return site", info.Ranges)
	}
	if last := info.Insts[len(info.Insts)-1]; last.Op != isa.HALT {
		t.Errorf("walk ended at %v, want HALT", last)
	}

	// From inside the callee there is no return-site context: the RET
	// ends the walk (empty return stack).
	info = a.walkPath(p.MustLabel("fn"), 32)
	if len(info.Ranges) != 1 {
		t.Fatalf("callee-only ranges = %v, want one", info.Ranges)
	}
	if last := info.Insts[len(info.Insts)-1]; last.Op != isa.RET {
		t.Errorf("callee-only walk ended at %v, want RET", last)
	}
}
