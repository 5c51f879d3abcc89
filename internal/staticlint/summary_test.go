package staticlint

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// Tests for the interprocedural summary layer: call-graph construction,
// bottom-up SCC fixpoints, summary application at call sites, and the
// call-chain traces findings carry.

// lintRegs lints p with regs declared secret at entry.
func lintRegs(p *asm.Program, regs ...isa.Reg) *Report {
	return Lint(p, Spec{SecretRegs: regs}, DefaultConfig())
}

func TestCalleeKillNoFinding(t *testing.T) {
	// The callee zeroes the tainted register with the xor-self idiom;
	// its summary must report the kill, so the caller's branch on the
	// returned (clean) value is not flagged.
	b := asm.New(0x1000)
	b.Call("sanitize")
	b.Cmpi(isa.R0, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("sanitize")
	b.Xor(isa.R0, isa.R0)
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R0)
	if len(r.Findings) != 0 {
		t.Fatalf("findings after callee kill: %v", r.Findings)
	}
}

func TestCalleePreservesTaint(t *testing.T) {
	// A callee that never touches the tainted register must pass the
	// taint through its summary: the caller's branch stays flagged.
	b := asm.New(0x1000)
	b.Call("noop")
	cmp := b.PC()
	b.Cmpi(isa.R0, 0)
	_ = cmp
	branch := b.PC()
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("noop")
	b.Movi(isa.R3, 1)
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R0)
	fs := r.ByChecker("secret-dependent-branch")
	if len(fs) != 1 || fs[0].Addr != branch {
		t.Fatalf("branch findings = %v, want one at %#x", fs, branch)
	}
	if fs[0].Conf != Definite {
		t.Errorf("confidence = %v, want definite (register taint is exact)", fs[0].Conf)
	}
	if len(fs[0].CallChain) != 0 {
		t.Errorf("branch in the root function carries a call chain: %v", fs[0].CallChain)
	}
}

func TestDirectRecursionConverges(t *testing.T) {
	// A directly recursive callee: the SCC iteration must terminate and
	// still report that the recursion preserves the secret register.
	b := asm.New(0x1000)
	b.Movi(isa.R1, 3)
	b.Call("countdown")
	branch := b.PC() + 4 // the JCC after the CMP below
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("countdown")
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "done")
	b.Subi(isa.R1, 1)
	b.Call("countdown")
	b.Label("done")
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R2)
	fs := r.ByChecker("secret-dependent-branch")
	if len(fs) != 1 || fs[0].Addr != branch {
		t.Fatalf("branch findings = %v, want one at %#x", fs, branch)
	}
}

// mutualProg builds the two-function cycle: ping kills R5 before any
// recursion, pong has a path (its early-out) that never reaches ping's
// kill. target picks the function main calls.
func mutualProg(target string) *asm.Program {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 3)
	b.Call(target)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("ping")
	b.Xor(isa.R5, isa.R5)
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "ping_out")
	b.Subi(isa.R1, 1)
	b.Call("pong")
	b.Label("ping_out")
	b.Ret()
	b.Org(0x3000)
	b.Label("pong")
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "pong_out")
	b.Subi(isa.R1, 1)
	b.Call("ping")
	b.Label("pong_out")
	b.Ret()
	return b.MustBuild()
}

func TestMutualRecursionKillOnEveryPath(t *testing.T) {
	// Calling ping: every path through the 2-cycle SCC passes ping's
	// xor-self first, so the joined summary kills R5 and the caller's
	// branch is clean.
	r := lintRegs(mutualProg("ping"), isa.R5)
	if fs := r.ByChecker("secret-dependent-branch"); len(fs) != 0 {
		t.Fatalf("branch flagged despite kill on every path: %v", fs)
	}
}

func TestMutualRecursionKillOnSomePaths(t *testing.T) {
	// Calling pong: its early-out returns without ever reaching ping's
	// kill, so the joined summary must keep R5's input taint (may-taint
	// join) and the caller's branch stays flagged.
	r := lintRegs(mutualProg("pong"), isa.R5)
	if fs := r.ByChecker("secret-dependent-branch"); len(fs) != 1 {
		t.Fatalf("branch findings = %v, want one (pong's early-out preserves R5)", fs)
	}
}

func TestIndirectCalleeHavoc(t *testing.T) {
	// An indirect call has no resolvable summary: the conservative havoc
	// must smear the live secret taint into every register, so a branch
	// on a register the callee "could" have written is still reported.
	b := asm.New(0x1000)
	b.Movi(isa.R3, 0)
	b.Movi(isa.R6, 0x5000)
	b.Calli(isa.R6)
	branch := b.PC() + 4
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	r := lintRegs(b.MustBuild(), isa.R2)
	found := false
	for _, f := range r.ByChecker("secret-dependent-branch") {
		if f.Addr == branch {
			found = true
		}
	}
	if !found {
		t.Fatalf("havoc did not smear live taint into R3; findings: %v", r.Findings)
	}
}

func TestHavocWithoutLiveTaintStaysClean(t *testing.T) {
	// With no live secret taint at the indirect call, havoc has nothing
	// to smear: the same shape with no secret declared reports nothing.
	b := asm.New(0x1000)
	b.Movi(isa.R3, 0)
	b.Movi(isa.R6, 0x5000)
	b.Calli(isa.R6)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	r := Lint(b.MustBuild(), Spec{}, DefaultConfig())
	if len(r.Findings) != 0 {
		t.Fatalf("findings without any secret: %v", r.Findings)
	}
}

// retPushProg spills the secret R5 at offset off below the stack
// pointer, kills the register, calls a leaf, then branches on a reload
// of [R15-8] — the slot the CALL's return-address push overwrites.
func retPushProg(off int64) *asm.Program {
	b := asm.New(0x1000)
	b.Movi(isa.R15, 0x8000)
	b.Store(isa.R15, off, isa.R5) // spill the secret below SP
	b.Movi(isa.R5, 0)             // kill the register copy
	b.Call("leaf")
	b.Load(isa.R3, isa.R15, -8) // reload the return-address slot
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("leaf")
	b.Ret()
	return b.MustBuild()
}

func TestReturnAddressPushCleansSlot(t *testing.T) {
	// The spill goes to [R15-8]: the CALL's return-address push is a
	// store to that exact slot, so the stale secret is overwritten and
	// the post-return reload is clean. Before the push was modelled the
	// reload read the stale spill and raised a false positive.
	r := lintRegs(retPushProg(-8), isa.R5)
	if len(r.Findings) != 0 {
		t.Fatalf("stale-spill false positive survived the push model: %v", r.Findings)
	}
}

func TestReturnAddressPushOnlyCleansItsSlot(t *testing.T) {
	// Negative control: the spill goes to [R15-16], one slot below the
	// pushed return address — the secret survives the call and the
	// reload of [R15-8]... stays clean, but a reload of the spill slot
	// itself must still be tainted.
	b := asm.New(0x1000)
	b.Movi(isa.R15, 0x8000)
	b.Store(isa.R15, -16, isa.R5)
	b.Movi(isa.R5, 0)
	b.Call("leaf")
	b.Load(isa.R3, isa.R15, -16) // reload the untouched spill slot
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("leaf")
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R5)
	if fs := r.ByChecker("secret-dependent-branch"); len(fs) != 1 {
		t.Fatalf("spill one slot past the push must stay tainted; findings: %v", r.Findings)
	}
}

func TestCallChainAttached(t *testing.T) {
	// A finding inside a function only reachable through a call carries
	// the chain from the root caller down to the callee.
	b := asm.New(0x1000)
	site := b.PC()
	b.Call("h")
	b.Halt()
	b.Org(0x2000)
	b.Label("h")
	b.Cmpi(isa.R4, 0)
	branch := b.PC()
	b.Jcc(isa.NE, "hh")
	b.Label("hh")
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R4)
	var hit *Finding
	for i, f := range r.ByChecker("secret-dependent-branch") {
		if f.Addr == branch {
			hit = &r.ByChecker("secret-dependent-branch")[i]
		}
	}
	if hit == nil {
		t.Fatalf("callee branch not flagged: %v", r.Findings)
	}
	if len(hit.CallChain) != 1 {
		t.Fatalf("call chain = %v, want one frame", hit.CallChain)
	}
	fr := hit.CallChain[0]
	if fr.CallSite != site || fr.Callee != 0x2000 || fr.CalleeLabel != "h" {
		t.Errorf("frame = %+v, want call@%#x → h@0x2000", fr, site)
	}
}

func TestGadgetCrossFunction(t *testing.T) {
	// The transient window follows the call: a guarded load in the
	// caller disclosed by a branch in the callee is one cross-function
	// µop-cache gadget, attributed to both functions.
	b := asm.New(0x1000)
	b.Label("gmain")
	b.Cmpi(isa.R1, 64)
	b.Jcc(isa.AE, "gout")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Call("gsink")
	b.Label("gout")
	b.Halt()
	b.Org(0x1100)
	b.Label("gsink")
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "gs_out")
	b.Label("gs_out")
	b.Ret()
	p := b.MustBuild()
	hits := ScanGadgets(p, DefaultConfig())
	var cross *GadgetHit
	for i, h := range hits {
		if h.Kind == GadgetUopCache && h.CrossFunction {
			cross = &hits[i]
		}
	}
	if cross == nil {
		t.Fatalf("no cross-function µop-cache gadget: %v", hits)
	}
	if cross.LoadFunc != 0x1000 || cross.SinkFunc != 0x1100 {
		t.Errorf("attribution = load %#x sink %#x, want 0x1000/0x1100",
			cross.LoadFunc, cross.SinkFunc)
	}
}

func TestCallerSpillSurvivesCalleeStackReload(t *testing.T) {
	// REVIEW regression (confirmed false negative): the caller spills
	// the secret at its own [SP], zeroes the register, and calls a
	// callee that reloads the slot stack-relative — [R15+8] after the
	// return-address push. The cell is untracked in the callee's
	// symbolic frame but sits in the CALLER's frame, so the summary
	// must carry the caller-memory dependence (paramMem), not read it
	// as clean, and the caller's branch on the returned value must be
	// flagged.
	b := asm.New(0x1000)
	b.Movi(isa.R15, 0x8000)
	b.Store(isa.R15, 0, isa.R5) // spill the secret at the caller's [SP]
	b.Movi(isa.R5, 0)           // kill the register copy
	b.Call("peek")
	b.Cmpi(isa.R3, 0)
	branch := b.PC()
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("peek")
	b.Load(isa.R3, isa.R15, 8) // caller's [SP]: one slot above the pushed return address
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R5)
	fs := r.ByChecker("secret-dependent-branch")
	if len(fs) != 1 || fs[0].Addr != branch {
		t.Fatalf("branch findings = %v, want one at %#x (caller-frame reload must stay tainted)", fs, branch)
	}
}

func TestCalleeFreshFrameReadStaysClean(t *testing.T) {
	// Precision control for the caller-frame fix: an untracked cell
	// strictly below the callee's entry SP is the callee's own fresh
	// frame — never written, provably clean — so the caller's tainted
	// memory must NOT smear into a reload from it.
	b := asm.New(0x1000)
	b.Movi(isa.R15, 0x8000)
	b.Store(isa.R15, 0, isa.R5)
	b.Movi(isa.R5, 0)
	b.Call("scratch")
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("scratch")
	b.Load(isa.R3, isa.R15, -16) // the callee's own (never-written) frame
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R5)
	if len(r.Findings) != 0 {
		t.Fatalf("fresh-frame reload raised findings: %v", r.Findings)
	}
}

func TestCalleeReturnAddressReadStaysClean(t *testing.T) {
	// The slot at the callee's entry SP holds the CALL-pushed return
	// address — a clean code address — so a reload of [R15] inside the
	// callee stays clean even though it sits at the caller-frame
	// boundary.
	b := asm.New(0x1000)
	b.Movi(isa.R15, 0x8000)
	b.Store(isa.R15, 0, isa.R5)
	b.Movi(isa.R5, 0)
	b.Call("retpeek")
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("retpeek")
	b.Load(isa.R3, isa.R15, 0) // the return-address slot itself
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R5)
	if len(r.Findings) != 0 {
		t.Fatalf("return-address reload raised findings: %v", r.Findings)
	}
}

func TestFlowCapDegradesSummariesToHavoc(t *testing.T) {
	// A fixpoint cut short by the worklist safety cap yields an
	// under-approximating transfer; summarize must degrade the function
	// to havoc instead of letting every call site apply partial facts.
	old := flowStepCap
	flowStepCap = func(int) int { return 0 }
	defer func() { flowStepCap = old }()
	b := asm.New(0x1000)
	b.Call("sanitize")
	b.Halt()
	b.Org(0x2000)
	b.Label("sanitize")
	b.Xor(isa.R0, isa.R0)
	b.Ret()
	a := Analyze(b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R0}}, DefaultConfig())
	if len(a.summaries) == 0 {
		t.Fatal("no summaries computed")
	}
	for fi, s := range a.summaries {
		if !s.havoc {
			t.Errorf("summary of %#x survived a capped fixpoint: %+v", a.funcs[fi].Entry, s)
		}
	}
}

func TestSummaryAppliedInsteadOfFlowThrough(t *testing.T) {
	// A callee that moves the taint between registers: the caller must
	// see the taint in the destination, not the source — the summary's
	// transfer function, not a blind pass-through.
	b := asm.New(0x1000)
	b.Call("shuffle")
	b.Cmpi(isa.R7, 0) // taint arrived in R7
	b.Jcc(isa.NE, "x")
	b.Label("x")
	b.Cmpi(isa.R0, 0) // ...and left R0 (shuffle zeroed it)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("shuffle")
	b.Mov(isa.R7, isa.R0)
	b.Xor(isa.R0, isa.R0)
	b.Ret()
	r := lintRegs(b.MustBuild(), isa.R0)
	fs := r.ByChecker("secret-dependent-branch")
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want exactly the R7 branch", fs)
	}
	if fs[0].Addr != 0x1000+5+4 {
		t.Errorf("flagged %#x, want the first branch (on R7)", fs[0].Addr)
	}
}
