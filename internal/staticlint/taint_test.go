package staticlint

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/ref"
)

// branchFindings lints p with the secret-branch checker only.
func branchFindings(t *testing.T, p *asm.Program, spec Spec) []Finding {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Checkers = []Checker{SecretBranchChecker{}}
	return Lint(p, spec, cfg).Findings
}

func TestSecretRegReachesBranch(t *testing.T) {
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1", fs)
	}
	if fs[0].Conf != Definite {
		t.Errorf("confidence = %v, want definite", fs[0].Conf)
	}
}

func TestOverwriteKillsSecret(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R5, 7) // kill the secret before the compare
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 0 {
		t.Fatalf("findings after kill = %v, want none", fs)
	}
}

func TestResolvedSecretRangeLoadIsDefinite(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R2, 0x3000)
	b.Loadb(isa.R3, isa.R2, 0) // resolved read of the secret range
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(),
		Spec{SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}}})
	if len(fs) != 1 || fs[0].Conf != Definite {
		t.Fatalf("findings = %v, want one definite", fs)
	}
}

func TestResolvedPublicLoadIsClean(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R2, 0x1000)
	b.Load(isa.R3, isa.R2, 0) // resolved read outside every secret range
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(),
		Spec{SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}}})
	if len(fs) != 0 {
		t.Fatalf("public load flagged: %v", fs)
	}
}

func TestUnresolvedLoadIsMayAlias(t *testing.T) {
	// The address depends on an unknown argument register, so the load
	// may alias the secret range: flagged with may confidence.
	b := asm.New(0x1000)
	b.Loadb(isa.R3, isa.R1, 0x2000)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(),
		Spec{SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}}})
	if len(fs) != 1 || fs[0].Conf != May {
		t.Fatalf("findings = %v, want one may-confidence", fs)
	}
}

func TestEntryConstsResolveAddresses(t *testing.T) {
	// With the ABI fact R2 = 0 declared, the same load resolves to a
	// public address and the branch is clean.
	b := asm.New(0x1000)
	b.Load(isa.R3, isa.R2, 0x1000)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	spec := Spec{
		SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}},
		EntryConsts:  map[isa.Reg]int64{isa.R2: 0},
	}
	if fs := branchFindings(t, b.MustBuild(), spec); len(fs) != 0 {
		t.Fatalf("resolved public load flagged: %v", fs)
	}
}

func TestSecretThroughMemorySpill(t *testing.T) {
	// Secret spilled to a resolved cell and reloaded: taint must
	// survive the round trip even though the register copy dies.
	b := asm.New(0x1000)
	b.Movi(isa.R2, 0x5000)
	b.Store(isa.R2, 0, isa.R5) // spill secret R5
	b.Movi(isa.R5, 0)          // kill the register copy
	b.Load(isa.R3, isa.R2, 0)  // reload
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1 (taint through memory)", fs)
	}
}

func TestSecretStoreAddressTaintsUnresolvedLoads(t *testing.T) {
	// A clean value stored through a secret-derived, unresolved address:
	// which cell changed depends on the secret, so a later load from an
	// unresolved address — which may read that cell — is tainted.
	b := asm.New(0x1000)
	b.Mov(isa.R2, isa.R5)
	b.Andi(isa.R2, 0xF8)
	b.Movi(isa.R4, 1)
	b.Store(isa.R2, 0x5000, isa.R4) // store [secret + 0x5000] = 1
	b.Load(isa.R3, isa.R7, 0)       // R7 unresolved: may read that cell
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1 (taint through the store address)", fs)
	}
}

// TestGeneratedStoreAddressLeakFlagged pins a false negative found by
// comparing the linter against the simulator: in ref.Generate seed 98
// with R0/R1 secret, a store at a secret-derived address decides what
// a later load reads, and a branch tests that value, so the program's
// front-end behaviour varies with the secret. The linter must flag it.
func TestGeneratedStoreAddressLeakFlagged(t *testing.T) {
	p, err := ref.Generate(98, ref.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fs := Lint(p, Spec{SecretRegs: []isa.Reg{isa.R0, isa.R1}}, DefaultConfig()).Findings; len(fs) == 0 {
		t.Error("seed 98 with R0/R1 secret: no front-end finding")
	}
}

func TestStoreKillsStaleMemoryTaint(t *testing.T) {
	// Overwriting the spilled cell with a clean value must kill the
	// cell's taint (strong update at a resolved address).
	b := asm.New(0x1000)
	b.Movi(isa.R2, 0x5000)
	b.Store(isa.R2, 0, isa.R5) // spill secret
	b.Movi(isa.R4, 123)
	b.Store(isa.R2, 0, isa.R4) // overwrite with a constant
	b.Load(isa.R3, isa.R2, 0)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 0 {
		t.Fatalf("stale memory taint survived overwrite: %v", fs)
	}
}

func TestJoinMergesTaint(t *testing.T) {
	// One arm taints R3, the other leaves it clean: after the join the
	// branch must still be flagged (may-analysis unions at merges).
	b := asm.New(0x1000)
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "clean")
	b.Mov(isa.R3, isa.R5) // tainted arm
	b.Jmp("join")
	b.Label("clean")
	b.Movi(isa.R3, 0)
	b.Label("join")
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1 (join must union)", fs)
	}
	if fs[0].Addr != b.MustBuild().MustLabel("join")+4 {
		t.Errorf("flagged %#x, want the post-join branch", fs[0].Addr)
	}
}

func TestZeroIdiomAndConstFold(t *testing.T) {
	// xor-self kills taint and constant folding tracks the result, so
	// a later resolved address stays resolved.
	b := asm.New(0x1000)
	b.Mov(isa.R2, isa.R5) // tainted
	b.Xor(isa.R2, isa.R2) // killed, R2 = 0
	b.Addi(isa.R2, 0x1000)
	b.Load(isa.R3, isa.R2, 0) // resolved public load
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	spec := Spec{
		SecretRegs:   []isa.Reg{isa.R5},
		SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}},
	}
	if fs := branchFindings(t, b.MustBuild(), spec); len(fs) != 0 {
		t.Fatalf("findings = %v, want none (zeroed + folded to public)", fs)
	}
}

func TestIndirectBranchOnSecretTarget(t *testing.T) {
	b := asm.New(0x1000)
	b.Mov(isa.R4, isa.R5)
	b.Jmpi(isa.R4)
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1 (secret indirect target)", fs)
	}
}

func TestUnreachableRoutinesAreSeeded(t *testing.T) {
	// Routines only reachable through unresolved calls still get
	// analyzed with the entry seed (no-predecessor blocks are
	// entries).
	b := asm.New(0x1000)
	b.Halt()
	b.Label("orphan")
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "orphan_out")
	b.Label("orphan_out")
	b.Ret()
	fs := branchFindings(t, b.MustBuild(), Spec{SecretRegs: []isa.Reg{isa.R5}})
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want 1 (orphan routine analyzed)", fs)
	}
}

func TestFixpointTerminatesOnLoop(t *testing.T) {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Loadb(isa.R2, isa.R1, 0x2000)
	b.Add(isa.R3, isa.R2)
	b.Cmpi(isa.R1, 100)
	b.Jcc(isa.B, "loop")
	b.Halt()
	fs := branchFindings(t, b.MustBuild(),
		Spec{SecretRanges: []MemRange{{Start: 0x3000, End: 0x3400}}})
	// The loop branch compares the clean counter; the body's load is
	// may-secret but never reaches flags.
	if len(fs) != 0 {
		t.Fatalf("loop produced findings %v", fs)
	}
}
