package difftest

import (
	"reflect"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/staticlint"
)

// TestAlignCorpus pins the alignment channel end to end: every
// ShapeAlign victim must hold the differential contract, the predicted
// align-stall asymmetry must point at whichever direction carries the
// window-straddling jumps, and the straddle count must price exactly
// (one straddling jcc per region, JccAlignPenalty cycles each).
func TestAlignCorpus(t *testing.T) {
	results, err := skylake.RunShapeMany(SeedRange(1, corpusSize), 0, ShapeAlign)
	if err != nil {
		t.Fatal(err)
	}
	penalty := skylake.Config().Decode.JccAlignPenalty
	var straddleTaken, straddleFall int
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
			continue
		}
		v, p := r.Victim, r.Prediction
		delta := p.TakenCost.AlignStallCycles - p.FallCost.AlignStallCycles
		var want int
		switch {
		case v.Taken.JccOffset == 15 && v.Fall.JccOffset != 15:
			want = v.Taken.Regions() * penalty
			straddleTaken++
		case v.Fall.JccOffset == 15 && v.Taken.JccOffset != 15:
			want = -v.Fall.Regions() * penalty
			straddleFall++
		default:
			t.Fatalf("seed %d: no single straddling direction (taken jcc@%d, fall jcc@%d)",
				r.Seed, v.Taken.JccOffset, v.Fall.JccOffset)
		}
		if delta != want {
			t.Errorf("seed %d: predicted align delta %+d, want %+d\nvictim: %s",
				r.Seed, delta, want, r.Describe())
		}
		if p.TakenCost.AlignJccs != v.Taken.Regions()*btoi(v.Taken.JccOffset == 15) ||
			p.FallCost.AlignJccs != v.Fall.Regions()*btoi(v.Fall.JccOffset == 15) {
			t.Errorf("seed %d: straddle counts taken %d / fall %d for jcc@%d / jcc@%d",
				r.Seed, p.TakenCost.AlignJccs, p.FallCost.AlignJccs,
				v.Taken.JccOffset, v.Fall.JccOffset)
		}
	}
	if straddleTaken == 0 || straddleFall == 0 {
		t.Errorf("corpus covers only one straddle direction: taken %d, fall %d",
			straddleTaken, straddleFall)
	}
	t.Logf("validated %d align victims (%d straddle-taken, %d straddle-fall)",
		len(results), straddleTaken, straddleFall)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAlignCheckerOnCorpus runs the jump-alignment checker over a
// sample of generated victims and requires a finding at the generated
// branch whose align delta matches the prediction's breakout.
func TestAlignCheckerOnCorpus(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		v, err := skylake.GenerateShape(seed, ShapeAlign)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
		var hit *staticlint.Finding
		for i, f := range r.ByChecker("secret-dependent-jump-alignment") {
			if f.Addr == v.Branch {
				hit = &r.ByChecker("secret-dependent-jump-alignment")[i]
			}
		}
		if hit == nil {
			t.Fatalf("seed %d: no jump-alignment finding at branch %#x", seed, v.Branch)
		}
		if (hit.AlignDeltaCycles > 0) != (v.Taken.JccOffset == 15) || hit.AlignDeltaCycles == 0 {
			t.Errorf("seed %d: align delta %+d but straddling side is taken=%v",
				seed, hit.AlignDeltaCycles, v.Taken.JccOffset == 15)
		}
	}
}

// TestSwitchCorpus pins the DSB↔MITE switch-point channel: every
// ShapeSwitch victim must hold the cycle contract, and the predicted
// per-direction switch-point counts must equal the simulator's
// DSB2MITESwitches counter reads exactly — the switch contract is
// counter equality, not tolerance.
func TestSwitchCorpus(t *testing.T) {
	results, err := skylake.RunShapeMany(SeedRange(1, corpusSize), 0, ShapeSwitch)
	if err != nil {
		t.Fatal(err)
	}
	arena := new(cpu.Arena)
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
			continue
		}
		v, p := r.Victim, r.Prediction
		runner := skylake.NewPointRunner(v, arena)
		if v.TakenUnc == nil {
			t.Fatalf("seed %d: switch victim has no uncacheable taken tail", r.Seed)
		}
		diff := p.TakenCost.WarmSwitchPoints - p.FallCost.WarmSwitchPoints
		if want := v.TakenUnc.Regions(); diff != want {
			t.Errorf("seed %d: predicted warm switch-point diff %d, want %d (uncacheable tail regions)",
				r.Seed, diff, want)
		}
		for _, dir := range []struct {
			name   string
			secret int64
			cost   staticlint.PathCost
		}{
			{"taken", 1, p.TakenCost},
			{"fall", 0, p.FallCost},
		} {
			pt, err := runner.Measure(dir.secret)
			if err != nil {
				t.Fatal(err)
			}
			if pt.WarmSwitches != dir.cost.WarmSwitchPoints || pt.ColdSwitches != dir.cost.ColdSwitchPoints {
				t.Errorf("seed %d %s: measured switches warm %d / cold %d, predicted %d / %d\nvictim: %s",
					r.Seed, dir.name, pt.WarmSwitches, pt.ColdSwitches,
					dir.cost.WarmSwitchPoints, dir.cost.ColdSwitchPoints, r.Describe())
			}
		}
	}
	t.Logf("validated %d switch victims against counter reads", len(results))
}

// TestSwitchCheckerOnCorpus requires the dsb-mite-switch checker to
// fire at the generated branch with the tail chain's region count
// priced at the full switch bubble.
func TestSwitchCheckerOnCorpus(t *testing.T) {
	bubble := 1 + skylake.Config().UopCache.SwitchPenalty
	for seed := uint64(1); seed <= 25; seed++ {
		v, err := skylake.GenerateShape(seed, ShapeSwitch)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
		var hit *staticlint.Finding
		for i, f := range r.ByChecker("dsb-mite-switch") {
			if f.Addr == v.Branch {
				hit = &r.ByChecker("dsb-mite-switch")[i]
			}
		}
		if hit == nil {
			t.Fatalf("seed %d: no switch-point finding at branch %#x", seed, v.Branch)
		}
		if want := v.TakenUnc.Regions() * bubble; hit.SwitchDeltaCycles != want {
			t.Errorf("seed %d: switch delta %+d, want %+d", seed, hit.SwitchDeltaCycles, want)
		}
	}
}

// TestIndirectCorpus holds the indirect-call victims to the same
// differential contract as every other shape: the havoc fallback must
// carry taint across the CALLI and the stitched fetch path must price
// the callee exactly.
func TestIndirectCorpus(t *testing.T) {
	results, err := skylake.RunShapeMany(SeedRange(1, corpusSize), 0, ShapeIndirect)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
	t.Logf("validated %d indirect-call victims", len(results))
}

// TestIndirectHavocSoundness is the regression pin for the
// interprocedural havoc fallback: the secret loaded before the
// indirect call must still taint the branch after it. If a future
// "precision" change kills register taint across an unresolved CALLI
// instead of havocking it, the secret-branch finding disappears and
// this test fails — missed taint is unsoundness, not precision.
func TestIndirectHavocSoundness(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		v, err := skylake.GenerateShape(seed, ShapeIndirect)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
		var hit *staticlint.Finding
		for i, f := range r.ByChecker("secret-dependent-branch") {
			if f.Addr == v.Branch {
				hit = &r.ByChecker("secret-dependent-branch")[i]
			}
		}
		if hit == nil {
			t.Fatalf("seed %d: branch %#x after indirect call lost its taint (havoc fallback unsound)",
				seed, v.Branch)
		}
		// The CALLI's own target is a constant register move — the
		// havoc fallback must not invent taint on the call itself.
		for _, f := range r.ByChecker("secret-dependent-branch") {
			if f.Addr != v.Branch {
				t.Errorf("seed %d: spurious secret-branch finding at %#x", seed, f.Addr)
			}
		}
	}
}

// TestGenerateShapeDeterministic pins the pinned-shape generator the
// same way TestGenerateDeterministic pins the seed-drawn one.
func TestGenerateShapeDeterministic(t *testing.T) {
	for _, shape := range []Shape{ShapeAlign, ShapeSwitch, ShapeIndirect, ShapeIndirectTable, ShapeIndirectMutual} {
		for _, seed := range []uint64{1, 7, 99} {
			v1, err := skylake.GenerateShape(seed, shape)
			if err != nil {
				t.Fatalf("%v seed %d: %v", shape, seed, err)
			}
			v2, err := skylake.GenerateShape(seed, shape)
			if err != nil {
				t.Fatalf("%v seed %d: %v", shape, seed, err)
			}
			if v1.Branch != v2.Branch || v1.Helper != v2.Helper || v1.RetSite != v2.RetSite ||
				!reflect.DeepEqual(v1.Taken, v2.Taken) ||
				!reflect.DeepEqual(v1.Fall, v2.Fall) ||
				!reflect.DeepEqual(v1.TakenUnc, v2.TakenUnc) {
				t.Errorf("%v seed %d: generation not deterministic:\n%+v\n%+v", shape, seed, v1, v2)
			}
		}
	}
	if _, err := skylake.GenerateShape(1, ShapeIndirectMutual+1); err == nil {
		t.Error("out-of-range shape accepted")
	}
}

// FuzzAlignmentDelta throws random seeds at the pinned alignment shape
// and holds every victim to the acceptance contract plus a nonzero
// align-stall asymmetry — the channel must never degenerate into a
// symmetric victim. The committed corpus keeps the seeds that
// calibrated the shape's geometry (pad-divisor NOP mixes, 1–3 sets ×
// up to 3 ways, straddle on either direction).
func FuzzAlignmentDelta(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r, err := skylake.RunShapeWith(seed, ShapeAlign, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
		d := r.Prediction.TakenCost.AlignStallCycles - r.Prediction.FallCost.AlignStallCycles
		if d == 0 {
			t.Errorf("seed %d: alignment victim has no align-stall asymmetry", seed)
		}
	})
}

// TestIndirectTableCorpus holds the table-dispatch victims to the
// differential contract. Unlike ShapeIndirect's singleton move, the
// dispatch target here is loaded from a two-slot function-pointer
// table, so the divergence finding only exists because the value-set
// resolution proves the complete {hot, decoy} set and joins the hot
// callee's summary across the call.
func TestIndirectTableCorpus(t *testing.T) {
	results, err := skylake.RunShapeMany(SeedRange(1, corpusSize), 0, ShapeIndirectTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
	t.Logf("validated %d table-dispatch victims", len(results))
}

// TestIndirectMutualCorpus holds the mutual-recursion victims to the
// differential contract: the summary fixpoint must converge over the
// resolved A → B → A cycle before the callee's branch can be priced.
func TestIndirectMutualCorpus(t *testing.T) {
	results, err := skylake.RunShapeMany(SeedRange(1, corpusSize), 0, ShapeIndirectMutual)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
	t.Logf("validated %d mutual-recursion victims", len(results))
}

// TestIndirectTableResolution pins the report side of the tentpole on
// the table shape: exactly one resolved calli whose target set is the
// complete {hot, decoy} pair, a zero havoc rate against a 1.0
// before-rate, and a divergence finding at the generated branch whose
// call chain crosses the resolved indirect frame.
func TestIndirectTableResolution(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		v, err := skylake.GenerateShape(seed, ShapeIndirectTable)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
		if len(r.Resolved) != 1 {
			t.Fatalf("seed %d: %d resolved sites, want 1", seed, len(r.Resolved))
		}
		site := r.Resolved[0]
		if site.Kind != "calli" || !reflect.DeepEqual(site.Targets, []uint64{dispatchBase, dispatchDecoy}) {
			t.Errorf("seed %d: resolved %s targets %#x, want calli {%#x, %#x}",
				seed, site.Kind, site.Targets, uint64(dispatchBase), uint64(dispatchDecoy))
		}
		p := r.Precision
		if p == nil || p.IndirectSites != 1 || p.ResolvedSites != 1 || p.HavocSites != 0 ||
			p.HavocRate != 0 || p.HavocRateBefore != 1 {
			t.Errorf("seed %d: precision %+v, want 1 indirect site fully resolved", seed, p)
		}
		assertChainThroughFrame(t, r, v, site.Addr, seed)
	}
}

// TestIndirectMutualResolution pins the report side on the mutual
// shape: the entry dispatch and both never-executed recursion stubs
// resolve (three calli sites, zero havoc), and the secret branch
// inside callee A still traces its chain through the resolved entry
// frame.
func TestIndirectMutualResolution(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		v, err := skylake.GenerateShape(seed, ShapeIndirectMutual)
		if err != nil {
			t.Fatal(err)
		}
		r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
		if len(r.Resolved) != 3 {
			t.Fatalf("seed %d: %d resolved sites, want 3 (entry + two recursion stubs)", seed, len(r.Resolved))
		}
		targets := map[uint64]bool{}
		for _, site := range r.Resolved {
			if site.Kind != "calli" || len(site.Targets) != 1 {
				t.Errorf("seed %d: resolved %s targets %#x, want singleton calli", seed, site.Kind, site.Targets)
				continue
			}
			targets[site.Targets[0]] = true
		}
		if !targets[mutualABase] || !targets[mutualBBase] {
			t.Errorf("seed %d: resolved target union %v misses a mutual callee", seed, targets)
		}
		p := r.Precision
		if p == nil || p.IndirectSites != 3 || p.ResolvedSites != 3 || p.HavocRate != 0 {
			t.Errorf("seed %d: precision %+v, want 3 indirect sites fully resolved", seed, p)
		}
		var entrySite uint64
		for _, site := range r.Resolved {
			if site.Targets[0] == mutualABase && site.Addr < mutualABase {
				entrySite = site.Addr
			}
		}
		if entrySite == 0 {
			t.Fatalf("seed %d: no resolved entry dispatch site", seed)
		}
		assertChainThroughFrame(t, r, v, entrySite, seed)
	}
}

// assertChainThroughFrame requires the divergence finding at the
// victim's branch to carry a call chain whose final hop is the
// resolved indirect frame: call site at callSite, callee at v.Helper.
func assertChainThroughFrame(t *testing.T, r *staticlint.Report, v *Victim, callSite uint64, seed uint64) {
	t.Helper()
	var hit *staticlint.Finding
	for i, f := range r.ByChecker("dsb-footprint-divergence") {
		if f.Addr == v.Branch {
			hit = &r.ByChecker("dsb-footprint-divergence")[i]
		}
	}
	if hit == nil {
		t.Fatalf("seed %d: no divergence finding at branch %#x through the resolved call", seed, v.Branch)
	}
	if len(hit.CallChain) == 0 {
		t.Fatalf("seed %d: finding at %#x carries no call chain", seed, v.Branch)
	}
	last := hit.CallChain[len(hit.CallChain)-1]
	if last.CallSite != callSite || last.Callee != v.Helper {
		t.Errorf("seed %d: chain tail %#x→%#x, want resolved frame %#x→%#x",
			seed, last.CallSite, last.Callee, callSite, v.Helper)
	}
}

// TestIndirectBPUCrossCheck closes the loop between the static target
// sets and the cycle-level predictor: after running a victim with both
// secret values, every CALLI the BPU trained an indirect target for
// must predict a member of the statically resolved set at that site —
// the static set is an over-approximation of everything the hardware
// predictor ever learns.
func TestIndirectBPUCrossCheck(t *testing.T) {
	for _, shape := range []Shape{ShapeIndirectTable, ShapeIndirectMutual} {
		for seed := uint64(1); seed <= 10; seed++ {
			v, err := skylake.GenerateShape(seed, shape)
			if err != nil {
				t.Fatal(err)
			}
			r := staticlint.Lint(v.Prog, Spec(), skylake.Config())
			static := map[uint64]map[uint64]bool{}
			for _, site := range r.Resolved {
				set := map[uint64]bool{}
				for _, tgt := range site.Targets {
					set[tgt] = true
				}
				static[site.Addr] = set
			}
			c := cpu.New(skylake.CPUConfig())
			c.LoadProgram(v.Prog)
			for _, secret := range []int64{0, 1} {
				c.Mem().Write(SecretAddr, 1, secret)
				for i := 0; i < 3; i++ {
					if res := c.Run(0, v.Entry, maxCycles); res.TimedOut {
						t.Fatalf("%v seed %d: run timed out", shape, seed)
					}
				}
			}
			trained := 0
			for _, in := range v.Prog.Insts {
				set, resolved := static[in.Addr]
				if !resolved {
					continue
				}
				tgt, ok := c.BPU(0).PredictIndirect(in.Addr)
				if !ok {
					continue
				}
				trained++
				if !set[tgt] {
					t.Errorf("%v seed %d: BPU trained %#x→%#x outside the static set %v",
						shape, seed, in.Addr, tgt, set)
				}
			}
			if trained == 0 {
				t.Errorf("%v seed %d: BPU trained no resolved site", shape, seed)
			}
		}
	}
}

// FuzzIndirectDelta throws random seeds at the two resolution-gated
// shapes and holds every victim to the acceptance contract — each
// victim only prices at all because the value-set pass proves its
// dispatch sites complete, so any resolution regression surfaces as a
// missing divergence finding before it can skew a delta. The committed
// corpus pins the seeds that calibrated the dispatch-zone geometry.
func FuzzIndirectDelta(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 5, 7, 11, 42, 99, 256, 1337} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed uint64, table bool) {
		shape := ShapeIndirectMutual
		if table {
			shape = ShapeIndirectTable
		}
		r, err := skylake.RunShapeWith(seed, shape, nil)
		if err != nil {
			t.Fatalf("%v seed %d: %v", shape, seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	})
}
