package difftest

// profile_matrix_test.go runs the package's differential contracts
// under every registered front-end profile, not just the default
// Skylake model the single-profile tests use. The
// matrix is filtered by the DEADUOPS_PROFILE environment variable
// (profile.Matrix), which is how CI runs one profile per job. Per
// profile the expectations fork where the microarchitectures genuinely
// differ: profiles with JccAlignPenalty == 0 must price a zero
// alignment delta and raise no jump-alignment findings, and the no-DSB
// control profile must measure exactly zero refill deltas, raise no
// footprint-divergence findings, and refuse the prime+probe protocol —
// while the purely decode-side alignment findings survive it.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
)

// matrixShapeSeeds bounds the pinned-shape and attacker-side corpora
// per profile; the headline refill contract runs the full corpusSize.
const matrixShapeSeeds = 50

func matrixProfiles(t *testing.T) []profile.Profile {
	t.Helper()
	ps, err := profile.Matrix()
	if err != nil {
		t.Fatalf("%s: %v", profile.MatrixEnv, err)
	}
	return ps
}

// TestMatrixDifferentialCorpus is TestDifferentialCorpus across the
// profile matrix: every generated victim under every profile must hold
// that profile's acceptance contract — positive ±Tolerance deltas with
// sign agreement on DSB profiles, exactly-zero deltas on the no-DSB
// control.
func TestMatrixDifferentialCorpus(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			results, err := h.RunMany(SeedRange(1, corpusSize), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Profile != p.Name {
					t.Fatalf("seed %d: result stamped %q, want %q", r.Seed, r.Profile, p.Name)
				}
				if err := r.Validate(); err != nil {
					t.Errorf("%v", err)
				}
			}
			t.Logf("validated %d victims under %s", len(results), p.Name)
		})
	}
}

// TestMatrixAlignCorpus forks the alignment-channel contract on the
// profile's JccAlignPenalty: straddle-pricing profiles must reproduce
// the exact straddles × penalty delta, and zero-penalty decoders (the
// AMD profiles) must price a zero alignment delta on the very same
// victim shapes while still holding the refill contract.
func TestMatrixAlignCorpus(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			results, err := h.RunShapeMany(SeedRange(1, matrixShapeSeeds), 0, ShapeAlign)
			if err != nil {
				t.Fatal(err)
			}
			penalty := p.Decode.JccAlignPenalty
			for _, r := range results {
				if err := r.Validate(); err != nil {
					t.Errorf("%v", err)
					continue
				}
				v, pr := r.Victim, r.Prediction
				delta := pr.TakenCost.AlignStallCycles - pr.FallCost.AlignStallCycles
				var want int
				switch {
				case v.Taken.JccOffset == 15 && v.Fall.JccOffset != 15:
					want = v.Taken.Regions() * penalty
				case v.Fall.JccOffset == 15 && v.Taken.JccOffset != 15:
					want = -v.Fall.Regions() * penalty
				default:
					t.Fatalf("seed %d: no single straddling direction", r.Seed)
				}
				if delta != want {
					t.Errorf("seed %d: predicted align delta %+d, want %+d", r.Seed, delta, want)
				}
			}
		})
	}
}

// TestMatrixAlignChecker pins the finding-level fork: the
// jump-alignment checker fires on every profile that prices the
// straddle penalty — including the no-DSB control, whose decoder is
// still Skylake's — and stays silent on zero-penalty decoders.
func TestMatrixAlignChecker(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			for seed := uint64(1); seed <= 10; seed++ {
				v, err := h.GenerateShape(seed, ShapeAlign)
				if err != nil {
					t.Fatal(err)
				}
				r := staticlint.Lint(v.Prog, Spec(), h.Config())
				findings := r.ByChecker("secret-dependent-jump-alignment")
				if p.Decode.JccAlignPenalty <= 0 {
					if len(findings) != 0 {
						t.Errorf("seed %d: %d alignment findings under penalty-free decoder %s",
							seed, len(findings), p.Name)
					}
					continue
				}
				var hit *staticlint.Finding
				for i, f := range findings {
					if f.Addr == v.Branch {
						hit = &findings[i]
					}
				}
				if hit == nil {
					t.Fatalf("seed %d: no jump-alignment finding at branch %#x under %s",
						seed, v.Branch, p.Name)
				}
			}
		})
	}
}

// TestMatrixSwitchCorpus holds the switch-point channel per profile:
// on DSB profiles the predicted warm switch-point asymmetry equals the
// uncacheable tail's region count and the per-direction counters match
// the simulator's DSB2MITESwitches reads exactly; on the no-DSB
// control the machine never leaves MITE, so warm and cold counters
// must be equal and the cycle deltas exactly zero.
func TestMatrixSwitchCorpus(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			results, err := h.RunShapeMany(SeedRange(1, matrixShapeSeeds), 0, ShapeSwitch)
			if err != nil {
				t.Fatal(err)
			}
			arena := new(cpu.Arena)
			for _, r := range results {
				if err := r.Validate(); err != nil {
					t.Errorf("%v", err)
					continue
				}
				v, pr := r.Victim, r.Prediction
				runner := h.NewPointRunner(v, arena)
				if v.TakenUnc == nil {
					t.Fatalf("seed %d: switch victim has no uncacheable taken tail", r.Seed)
				}
				if p.HasDSB() {
					diff := pr.TakenCost.WarmSwitchPoints - pr.FallCost.WarmSwitchPoints
					if want := v.TakenUnc.Regions(); diff != want {
						t.Errorf("seed %d: predicted warm switch-point diff %d, want %d",
							r.Seed, diff, want)
					}
				}
				for _, dir := range []struct {
					name   string
					secret int64
					cost   staticlint.PathCost
				}{
					{"taken", 1, pr.TakenCost},
					{"fall", 0, pr.FallCost},
				} {
					pt, err := runner.Measure(dir.secret)
					if err != nil {
						t.Fatal(err)
					}
					warm, cold := pt.WarmSwitches, pt.ColdSwitches
					if warm != dir.cost.WarmSwitchPoints || cold != dir.cost.ColdSwitchPoints {
						t.Errorf("seed %d %s: measured switches warm %d / cold %d, predicted %d / %d",
							r.Seed, dir.name, warm, cold,
							dir.cost.WarmSwitchPoints, dir.cost.ColdSwitchPoints)
					}
					if !p.HasDSB() && warm != cold {
						t.Errorf("seed %d %s: no-DSB switch counters diverge warm %d / cold %d",
							r.Seed, dir.name, warm, cold)
					}
				}
			}
		})
	}
}

// TestMatrixProbeCorpus runs the attacker-side harness per DSB
// profile and requires the no-DSB control to refuse the protocol
// outright — a prime+probe result without a DSB would be noise
// dressed as signal.
func TestMatrixProbeCorpus(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			if !p.HasDSB() {
				if _, err := h.RunProbeWith(1, nil); err == nil {
					t.Fatal("no-DSB harness accepted a prime+probe run")
				}
				return
			}
			results, err := h.RunProbeMany(SeedRange(1, matrixShapeSeeds), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if err := r.Validate(); err != nil {
					t.Errorf("%v", err)
				}
			}
			t.Logf("validated %d probe victims under %s", len(results), p.Name)
		})
	}
}

// TestMatrixNoDSBFindings is the control profile's headline: the
// footprint-divergence checker must go silent when the DSB is off —
// over victims that provably fire it on every DSB profile — while the
// decode-side alignment findings survive untouched.
func TestMatrixNoDSBFindings(t *testing.T) {
	control, err := profile.Get("mite-only")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(control)
	for seed := uint64(1); seed <= 10; seed++ {
		v, err := h.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), h.Config())
		if n := len(r.ByChecker("dsb-footprint-divergence")); n != 0 {
			t.Errorf("seed %d: %d footprint-divergence findings with the DSB disabled", seed, n)
		}
	}
	for seed := uint64(1); seed <= 10; seed++ {
		v, err := h.GenerateShape(seed, ShapeAlign)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), h.Config())
		var hit bool
		for _, f := range r.ByChecker("secret-dependent-jump-alignment") {
			if f.Addr == v.Branch {
				hit = true
			}
		}
		if !hit {
			t.Errorf("seed %d: alignment finding did not survive the no-DSB control", seed)
		}
	}
}

// TestMatrixDeterminism pins byte-identical reproducibility per
// profile: the corpus runner must return the same results at any
// worker count, and re-running a seed must reproduce it exactly.
func TestMatrixDeterminism(t *testing.T) {
	seeds := SeedRange(1, 16)
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			serial, err := h.RunMany(seeds, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := h.RunMany(seeds, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("result count diverges: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				s, q := serial[i], parallel[i]
				if s.Seed != q.Seed || s.PredTaken != q.PredTaken || s.PredFall != q.PredFall ||
					s.MeasTaken != q.MeasTaken || s.MeasFall != q.MeasFall ||
					s.Profile != q.Profile || s.NoDSB != q.NoDSB {
					t.Errorf("seed %d: results diverge across worker counts:\n1 worker: %+v\n4 workers: %+v",
						s.Seed, s, q)
				}
			}
		})
	}
}

// TestMatrixCanonicalGolden pins the canonical seeds' deltas per
// non-default profile in testdata/canonical_<profile>.golden — the
// default profile keeps its historical canonical.golden, asserted
// unchanged by TestCanonicalGolden. Run with -update after an
// intentional cost-model or profile-geometry change.
func TestMatrixCanonicalGolden(t *testing.T) {
	def := profile.Default().Name
	for _, p := range matrixProfiles(t) {
		p := p
		if p.Name == def {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			var records []canonicalRecord
			for _, seed := range canonicalSeeds {
				r, err := h.RunWith(seed, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := r.Validate(); err != nil {
					t.Fatalf("canonical victim no longer validates: %v", err)
				}
				records = append(records, canonicalRecord{
					Seed:      r.Seed,
					Victim:    r.Describe(),
					PredTaken: r.PredTaken,
					PredFall:  r.PredFall,
					MeasTaken: r.MeasTaken,
					MeasFall:  r.MeasFall,
				})
			}
			got, err := json.MarshalIndent(records, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			golden := filepath.Join("testdata", fmt.Sprintf("canonical_%s.golden", p.Name))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s canonical predictions drifted from golden:\ngot:\n%swant:\n%s",
					p.Name, got, want)
			}
		})
	}
}

// TestMatrixIndirectCorpus holds the resolution-dependent shapes to
// the differential contract per profile: the table dispatch and the
// mutual-recursion cycle must price within tolerance on every DSB
// profile and measure exactly-zero deltas on the no-DSB control. The
// CI shards (DEADUOPS_PROFILE pinning one profile) run the full
// 200-seed corpus — the acceptance contract for skylake, zen, and
// mite-only — while the unfiltered all-profiles run (the -race pass)
// uses the same matrixShapeSeeds bound as the other shape corpora to
// stay inside the package test budget; three shapes across five
// profiles at full size is the one combination that does not fit. The
// value-set resolution itself is frontend-independent, so a
// per-profile spot check also pins a zero havoc rate.
func TestMatrixIndirectCorpus(t *testing.T) {
	seeds := matrixShapeSeeds
	if os.Getenv(profile.MatrixEnv) != "" {
		seeds = corpusSize
	}
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			for _, shape := range []Shape{ShapeIndirect, ShapeIndirectTable, ShapeIndirectMutual} {
				results, err := h.RunShapeMany(SeedRange(1, uint64(seeds)), 0, shape)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					if err := r.Validate(); err != nil {
						t.Errorf("%v", err)
					}
				}
				t.Logf("validated %d %v victims under %s", len(results), shape, p.Name)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				for _, shape := range []Shape{ShapeIndirectTable, ShapeIndirectMutual} {
					v, err := h.GenerateShape(seed, shape)
					if err != nil {
						t.Fatal(err)
					}
					r := staticlint.Lint(v.Prog, Spec(), h.Config())
					if r.Precision == nil || r.Precision.HavocRate != 0 {
						t.Errorf("%v seed %d under %s: precision %+v, want zero havoc rate",
							shape, seed, p.Name, r.Precision)
					}
				}
			}
		})
	}
}
