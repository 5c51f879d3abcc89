package staticlint_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
	"deaduops/internal/victim"
)

// TestSegmentMemoMatchesFresh holds each analysis's segment memo to
// planning every segment on its own. Under every profile, the lint of
// each victim fixture and of 200 generated programs (R0 and R1 secret,
// so their branches are priced, placed and probed) must encode to the
// same JSON, and difftest seeds 1–200 must predict the same Prediction,
// with the memo and without it.
func TestSegmentMemoMatchesFresh(t *testing.T) {
	type target struct {
		name string
		prog *asm.Program
		spec staticlint.Spec
	}
	l := victim.DefaultLayout()
	var targets []target
	for _, fx := range victim.Fixtures(l) {
		targets = append(targets, target{fx.Name, fx.Prog, vpdSpecFor(l)})
	}
	for seed := uint64(1); seed <= 200; seed++ {
		p, err := ref.Generate(seed, ref.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{fmt.Sprintf("random-%d", seed), p,
			staticlint.Spec{SecretRegs: []isa.Reg{isa.R0, isa.R1}}})
	}
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			h := difftest.NewHarness(p)
			var victims []*difftest.Victim
			for seed := uint64(1); seed <= 200; seed++ {
				v, err := h.Generate(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				victims = append(victims, v)
			}
			lint := func() (out []string) {
				for _, x := range targets {
					b, err := json.Marshal(staticlint.Lint(x.prog, x.spec, h.Config()))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, string(b))
				}
				return out
			}
			predict := func() (out []difftest.Prediction) {
				for _, v := range victims {
					pr, err := h.Predict(v)
					if err != nil {
						t.Fatalf("seed %d: %v", v.Seed, err)
					}
					out = append(out, pr)
				}
				return out
			}
			gotLint, gotPred := lint(), predict()
			restore := staticlint.PlanFresh()
			wantLint, wantPred := lint(), predict()
			restore()
			for i, x := range targets {
				if gotLint[i] != wantLint[i] {
					t.Errorf("%s: lint with the memo\n%s\nplanning every segment\n%s", x.name, gotLint[i], wantLint[i])
				}
			}
			for i, v := range victims {
				if !reflect.DeepEqual(gotPred[i], wantPred[i]) {
					t.Errorf("seed %d: Predict with the memo\n%+v\nplanning every segment\n%+v", v.Seed, gotPred[i], wantPred[i])
				}
			}
		})
	}
}
