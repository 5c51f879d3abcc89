package staticlint_test

import (
	"reflect"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/auditd"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

// TestCheckerSubsetMatchesFullLint pins that the checkers only read
// the facts Analyze derives, never one another's output: under every
// profile, linting with Checkers set to a single checker returns
// exactly that checker's findings from the full lint. The corpus is
// the audit corpus (every victim fixture under its secret spec, plus
// the attack probes) and a few random programs, linted both with no
// secrets and with R0/R1 declared secret so the branch checkers fire
// on them too, and one secret branch whose taken path carries LCP and
// MSROM instructions, which nothing else in the corpus has.
func TestCheckerSubsetMatchesFullLint(t *testing.T) {
	corpus, err := auditd.Corpus(victim.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	random, err := auditd.RandomPrograms(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range random {
		corpus = append(corpus, p)
		p.Name += "/secret-regs"
		p.Spec = staticlint.Spec{SecretRegs: []isa.Reg{isa.R0, isa.R1}}
		corpus = append(corpus, p)
	}
	b := asm.New(0x1000)
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "amp")
	b.Halt()
	b.Align(256)
	b.Label("amp")
	b.NopLCP(4)
	b.Msrom(8)
	b.Halt()
	corpus = append(corpus, auditd.Program{Name: "amplified", Prog: b.MustBuild(),
		Spec: staticlint.Spec{SecretRegs: []isa.Reg{isa.R5}}})
	fired := map[string]bool{}
	for _, prof := range profile.All() {
		cfg := staticlint.ConfigForProfile(prof)
		for _, p := range corpus {
			full := staticlint.Lint(p.Prog, p.Spec, cfg)
			for _, c := range staticlint.AllCheckers() {
				one := cfg
				one.Checkers = []staticlint.Checker{c}
				got := staticlint.Lint(p.Prog, p.Spec, one).Findings
				want := full.ByChecker(c.Name())
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				fired[c.Name()] = true
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: %s alone found %d finding(s), the full lint %d:\n got  %+v\n want %+v",
						prof.Name, p.Name, c.Name(), len(got), len(want), got, want)
				}
			}
		}
	}
	// A checker that never fires would pass vacuously.
	for _, c := range staticlint.AllCheckers() {
		if !fired[c.Name()] {
			t.Errorf("%s never fired on the corpus", c.Name())
		}
	}
}
