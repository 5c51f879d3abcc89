package staticlint_test

import (
	"fmt"
	"slices"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/auditd"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
	"deaduops/internal/victim"
)

// hasIndirectSite reports whether p holds a CALLI or JMPI, the only
// instructions whose value sets resolution reads.
func hasIndirectSite(p *asm.Program) bool {
	return slices.ContainsFunc(p.Insts, func(in *isa.Inst) bool { return in.Op == isa.CALLI || in.Op == isa.JMPI })
}

// TestResolveIndirectSiteFreeRunsNoFixpoint pins resolution's early
// return. On a program with no CALLI/JMPI — the random corpus
// (ref.Generate seeds 1–200, which must stay site-free), the site-free
// victim fixtures and attack probes, and every difftest shape before
// ShapeIndirect under every profile — the pass makes exactly one
// allocation, the all-nil a.resolved table, so the value-set fixpoint
// never runs, and the report has no precision block. The programs with
// sites — fn-dispatch, resolvedMutualProg and the three indirect
// difftest shapes — still resolve every one, and the indirect-call
// fixture's site stays havoc.
func TestResolveIndirectSiteFreeRunsNoFixpoint(t *testing.T) {
	corpus, err := auditd.Corpus(victim.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	randoms, err := auditd.RandomPrograms(200)
	if err != nil {
		t.Fatal(err)
	}
	siteFree := slices.Clone(randoms)
	var withSites []auditd.Program
	for _, p := range corpus {
		if hasIndirectSite(p.Prog) {
			withSites = append(withSites, p)
		} else {
			siteFree = append(siteFree, p)
		}
	}
	for _, prof := range profile.All() {
		h := difftest.NewHarness(prof)
		for shape := difftest.ShapeLeaf; shape <= difftest.ShapeIndirectMutual; shape++ {
			v, err := h.GenerateShape(1, shape)
			if err != nil {
				t.Fatalf("%s %v: %v", prof.Name, shape, err)
			}
			p := auditd.Program{Name: fmt.Sprintf("%s/%v", prof.Name, shape), Prog: v.Prog, Spec: difftest.Spec()}
			if shape >= difftest.ShapeIndirect {
				withSites = append(withSites, p)
			} else {
				siteFree = append(siteFree, p)
			}
		}
	}
	mutual, _ := staticlint.ResolvedMutualProg(0x2000)
	withSites = append(withSites, auditd.Program{Name: "resolved-mutual", Prog: mutual, Spec: staticlint.Spec{SecretRegs: []isa.Reg{isa.R5}}})

	cfg := staticlint.DefaultConfig()
	for _, p := range siteFree {
		if hasIndirectSite(p.Prog) {
			t.Fatalf("%s: expected a site-free program", p.Name)
		}
		a := staticlint.Analyze(p.Prog, p.Spec, cfg)
		if n := testing.AllocsPerRun(5, a.ResolveIndirect); n != 1 {
			t.Errorf("%s: resolution allocates %v times, want 1 (the resolved table)", p.Name, n)
		}
		if pm := a.PrecisionMetrics(); pm != nil {
			t.Errorf("%s: site-free program has precision %+v, want nil", p.Name, pm)
		}
	}
	var fnDispatch bool
	for _, p := range withSites {
		a := staticlint.Analyze(p.Prog, p.Spec, cfg)
		pm := a.PrecisionMetrics()
		if pm == nil {
			t.Fatalf("%s: program with sites has no precision block", p.Name)
		}
		if p.Name == "indirect-call" {
			// The unresolvable fixture: its site stays havoc.
			if pm.HavocRate != 1 {
				t.Errorf("%s: havoc rate %v, want 1", p.Name, pm.HavocRate)
			}
			continue
		}
		fnDispatch = fnDispatch || p.Name == "fn-dispatch"
		if pm.HavocRate != 0 || len(a.ResolvedTargets()) != pm.IndirectSites {
			t.Errorf("%s: precision %+v, resolved %v; want every site resolved", p.Name, pm, a.ResolvedTargets())
		}
	}
	if !fnDispatch {
		t.Error("corpus has no fn-dispatch fixture")
	}
}
