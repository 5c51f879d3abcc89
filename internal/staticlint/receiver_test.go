package staticlint

import (
	"reflect"
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/uopcache"
)

func TestReceiverSpecFullOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	spec := ReceiverSpec(cfg, []int{3, 11})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// The receiver must claim every way of each probed set: a victim
	// line in a probed set then cannot install without displacing a
	// receiver line, and every displacement is probe-visible.
	if spec.Ways != cfg.UopCache.Ways {
		t.Errorf("receiver ways %d, want full %d-way occupancy", spec.Ways, cfg.UopCache.Ways)
	}
	if spec.NopPerRegion != codegen.TigerNops || !spec.LCP {
		t.Errorf("receiver regions not tiger-shaped: %+v", spec)
	}
}

func TestProbeModelDisabled(t *testing.T) {
	fp := uopcache.FootprintResult{Sets: map[int]int{}}
	if _, err := ProbeModel(DefaultConfig(), fp, fp, nil); err == nil {
		t.Error("empty probed-set list accepted")
	}
	// Divergence in every set leaves the receiver no free set for its
	// loop tail; the model must say so rather than search forever.
	if _, err := ProbeModel(DefaultConfig(), fp, fp, codegen.EvenSets(32, 0)); err == nil ||
		!strings.Contains(err.Error(), "no free set for the loop tail") {
		t.Errorf("all-sets receiver: err %v, want the loop-tail error", err)
	}
}

// chainVictimFootprint synthesizes the footprint of a probe-chain
// victim: one single-line region per (set, way).
func chainVictimFootprint(spec *codegen.ChainSpec) uopcache.FootprintResult {
	fp := uopcache.FootprintResult{Sets: map[int]int{}}
	for _, s := range spec.Sets {
		for w := 0; w < spec.Ways; w++ {
			fp.Regions = append(fp.Regions, uopcache.RegionFootprint{
				Region: spec.RegionAddr(s, w), Set: s, Ways: 1, Cacheable: true,
			})
		}
		fp.Sets[s] = spec.Ways
	}
	return fp
}

// probeFixture is a receiver over probe and a probe-chain victim
// occupying victimWays ways of each of victimSets.
type probeFixture struct {
	name       string
	probe      []int
	victimSets []int
	victimWays int
}

// simFixtures are the receiver/victim pairs the model is held to the
// simulator on.
var simFixtures = []probeFixture{
	{"one-line", []int{4}, []int{4}, 1},
	{"three-lines", []int{4}, []int{4}, 3},
	{"two-sets-partial", []int{3, 7}, []int{3}, 2},
	{"two-sets-both", []int{3, 7}, []int{3, 7}, 2},
	{"dense-sets", []int{1, 2, 6}, []int{2}, 1},
	{"wide", []int{6, 14, 22, 30}, []int{14, 30}, 3},
}

// TestProbeModelMatchesSimulator holds the receiver model to the
// simulator exactly: the predicted hit and miss probe measurements
// must equal what the actual prime → probe → prime → victim → probe
// protocol measures cycle for cycle, including the replacement-policy
// cascades a static eviction count misses. Victim chains are placed so
// their loop scaffolding stays out of the probed sets — the same
// property the difftest generator guarantees for its victims (the
// model only sees the divergence footprint, not scaffolding).
func TestProbeModelMatchesSimulator(t *testing.T) {
	cfg := DefaultConfig()
	for _, x := range simFixtures {
		t.Run(x.name, func(t *testing.T) {
			spec := ReceiverSpec(cfg, x.probe)
			recv, err := attack.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			vspec := codegen.ProbeChain(0x100000, x.victimSets, x.victimWays, "vic")
			vic, err := attack.Build(vspec)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := asm.Merge(recv.Prog, vic.Prog)
			if err != nil {
				t.Fatal(err)
			}
			c := cpu.New(cpu.Intel())
			c.LoadProgram(merged)

			run := func(r *attack.Routine, iters int) uint64 {
				cy, err := r.Run(c, int64(iters))
				if err != nil {
					t.Fatal(err)
				}
				return cy
			}
			run(recv, DefaultPrimeTraversals)
			measuredHit := run(recv, DefaultProbeIters)
			run(recv, DefaultPrimeTraversals)
			run(vic, DefaultVictimRuns)
			measuredMiss := run(recv, DefaultProbeIters)

			empty := uopcache.FootprintResult{Sets: map[int]int{}}
			h, err := ProbeModel(cfg, chainVictimFootprint(vspec), empty, x.probe)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(h.HitCycles) != measuredHit {
				t.Errorf("predicted hit %d cycles, simulator measured %d", h.HitCycles, measuredHit)
			}
			if uint64(h.Taken.Cycles) != measuredMiss {
				t.Errorf("predicted miss %d cycles, simulator measured %d", h.Taken.Cycles, measuredMiss)
			}
			if h.Fall.Cycles != h.HitCycles || h.Fall.ProbeMisses != 0 {
				t.Errorf("empty-footprint direction predicted %d cycles / %d misses; want the hit state",
					h.Fall.Cycles, h.Fall.ProbeMisses)
			}
			if h.Taken.ProbeMisses < h.Taken.EvictedLines {
				t.Errorf("probe misses %d below static eviction count %d", h.Taken.ProbeMisses, h.Taken.EvictedLines)
			}
		})
	}
}

// TestProbeModelCascade pins the reason the model replays the
// replacement state machine instead of counting evictions: a single
// victim line costs the probe more than one refill per traversal,
// because the probe's own failed refills displace worn-out neighbours.
func TestProbeModelCascade(t *testing.T) {
	cfg := DefaultConfig()
	vspec := codegen.ProbeChain(0x100000, []int{4}, 1, "vic")
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	h, err := ProbeModel(cfg, chainVictimFootprint(vspec), empty, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Taken.EvictedLines != 1 {
		t.Fatalf("static eviction count %d, want 1", h.Taken.EvictedLines)
	}
	if h.Taken.ProbeMisses <= DefaultProbeIters {
		t.Errorf("probe misses %d not above %d (one per traversal): cascade not modelled",
			h.Taken.ProbeMisses, DefaultProbeIters)
	}
}

func TestProbeModelSeparation(t *testing.T) {
	cfg := DefaultConfig()
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	loud := chainVictimFootprint(codegen.ProbeChain(0x100000, []int{4, 12}, 3, "vic"))

	// Asymmetric directions: one evicts, the other does not — the
	// probe times must separate beyond the floor.
	h, err := ProbeModel(cfg, loud, empty, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Distinguishable || h.SeparationMargin < ProbeSeparationFloor {
		t.Errorf("asymmetric eviction not distinguishable: margin %.2f", h.SeparationMargin)
	}
	if h.Taken.Separation < ProbeSeparationFloor {
		t.Errorf("taken-vs-hit separation %.2f below floor", h.Taken.Separation)
	}
	if h.DirectionCut <= float64(h.Fall.Cycles) || h.DirectionCut >= float64(h.Taken.Cycles) {
		t.Errorf("direction cut %.0f outside (%d, %d)", h.DirectionCut, h.Fall.Cycles, h.Taken.Cycles)
	}

	// Symmetric directions: identical footprints leave a total-time
	// receiver blind even though both perturb the probe.
	h, err = ProbeModel(cfg, loud, loud, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if h.Distinguishable || h.SeparationMargin != 1.0 {
		t.Errorf("identical footprints reported distinguishable (margin %.2f)", h.SeparationMargin)
	}
}

// TestProbeFloorMatchesAttack pins the duplicated constant: staticlint
// must not import internal/attack, so the separation floor the
// histograms are judged against is restated here — and this test keeps
// the two from drifting apart.
func TestProbeFloorMatchesAttack(t *testing.T) {
	if ProbeSeparationFloor != attack.SeparationFloor {
		t.Errorf("staticlint.ProbeSeparationFloor = %v, attack.SeparationFloor = %v",
			ProbeSeparationFloor, attack.SeparationFloor)
	}
}

// TestProbeMarginAgreesWithCalibrate holds the model's verdict to the
// attack tooling's on the same routine pair: when the histogram calls
// a victim distinguishable, attack.Calibrate against that victim must
// produce a threshold; when the histogram says the separation is
// floor-less, Calibrate must refuse to.
func TestProbeMarginAgreesWithCalibrate(t *testing.T) {
	cfg := DefaultConfig()
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	probe := []int{4, 12}

	calibrate := func(vspec *codegen.ChainSpec) error {
		recv, err := attack.Build(ReceiverSpec(cfg, probe))
		if err != nil {
			t.Fatal(err)
		}
		vic, err := attack.Build(vspec)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := asm.Merge(recv.Prog, vic.Prog)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cpu.Intel())
		c.LoadProgram(merged)
		_, err = attack.Calibrate(c, recv, vic,
			DefaultPrimeTraversals, DefaultProbeIters, 3)
		return err
	}

	// A victim occupying the probed sets: the model predicts a margin
	// over the floor, and calibration against the real victim succeeds.
	loudSpec := codegen.ProbeChain(0x100000, probe, 3, "vic")
	h, err := ProbeModel(cfg, chainVictimFootprint(loudSpec), empty, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Distinguishable {
		t.Fatalf("conflicting victim predicted indistinguishable (margin %.2f)", h.SeparationMargin)
	}
	if err := calibrate(loudSpec); err != nil {
		t.Errorf("model margin %.2f over floor, but Calibrate failed: %v", h.SeparationMargin, err)
	}

	// A victim outside the probed sets: the model predicts no
	// separation, and calibration refuses to produce a threshold.
	quietSpec := codegen.ProbeChain(0x100000, []int{20}, 1, "vic")
	h, err = ProbeModel(cfg, chainVictimFootprint(quietSpec), empty, probe)
	if err != nil {
		t.Fatal(err)
	}
	if h.Distinguishable || h.SeparationMargin != 1.0 {
		t.Fatalf("non-conflicting victim predicted distinguishable (margin %.2f)", h.SeparationMargin)
	}
	if err := calibrate(quietSpec); err == nil {
		t.Error("model predicts no separation, but Calibrate produced a threshold")
	}
}

// TestProbeModelForkEqualsFullReplay holds the forked-prefix replay to
// a full per-direction replay of the protocol on a fresh cache: every
// fixture of this file, with the victim in either direction or both,
// must yield the identical histogram.
func TestProbeModelForkEqualsFullReplay(t *testing.T) {
	fixtures := append([]probeFixture{
		{"separation-loud", []int{4, 12}, []int{4, 12}, 3},
		{"calibrate-quiet", []int{4, 12}, []int{20}, 1},
		// The receiver's loop tail sits in set 5, the first set after
		// the probed one: this victim evicts it before the timed probe.
		{"loop-tail-set", []int{4}, []int{5}, 8},
	}, simFixtures...)
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	cfg := DefaultConfig()
	for _, x := range fixtures {
		vic := chainVictimFootprint(codegen.ProbeChain(0x100000, x.victimSets, x.victimWays, "vic"))
		for _, dir := range []struct {
			name        string
			taken, fall uopcache.FootprintResult
		}{
			{"taken", vic, empty},
			{"fall", empty, vic},
			{"both", vic, vic},
		} {
			got, err := ProbeModel(cfg, dir.taken, dir.fall, x.probe)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ProbeModelFullReplay(cfg, DefaultPrimeTraversals, DefaultVictimRuns, dir.taken, dir.fall, x.probe)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: forked replay\n%+v\nfull replay\n%+v", x.name, dir.name, got, want)
			}
		}
	}
}

// TestProbeModelAllocsIndependentOfTraversals pins that the protocol
// replay allocates nothing per traversal: ProbeModel allocates the same
// at 160 priming traversals and victim runs as at 1. The low end is 1
// because the fixed-point cut-off replays only a few dozen of the 160,
// so from 16 up the replayed counts barely differ; from 1 they still
// differ by hundreds of segment touches. The slack absorbs the few
// allocations the runtime makes in the background (more of them under
// -race); one allocation per touch would exceed it by an order of
// magnitude.
func TestProbeModelAllocsIndependentOfTraversals(t *testing.T) {
	const slack = 10
	empty := uopcache.FootprintResult{Sets: map[int]int{}}
	vic := chainVictimFootprint(codegen.ProbeChain(0x100000, []int{14, 30}, 3, "vic"))
	probe := []int{6, 14, 22, 30}
	cfg := DefaultConfig()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := ProbeModelWith(cfg, n, n, vic, empty, probe); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(1), allocs(160); many > few+slack {
		t.Errorf("ProbeModel allocations: %v at 1 traversal, %v at 160; want at most %d more", few, many, slack)
	}
}

// FuzzProbeModelReplay holds ProbeModelWith — forked prefix, fixed-point
// cut-off, segment memo — to ProbeModelFullReplay, the protocol
// replayed literally, on random receivers and victims: any registered
// profile, probed and victim sets drawn from 64-bit masks (taken modulo
// the profile's set count), 1..Ways victim regions of
// 1..MaxLinesPerRegion lines per victim set, and priming traversals and
// victim runs from 1 to 400. The two must return identical histograms,
// or identical errors.
func FuzzProbeModelReplay(f *testing.F) {
	all := profile.All()
	f.Fuzz(func(t *testing.T, prof uint8, probeMask, takenMask, fallMask uint64, shape uint8, prime, runs uint16) {
		p := all[int(prof)%len(all)]
		cfg := ConfigForProfile(p)
		primeN, runsN := 1+int(prime)%400, 1+int(runs)%400
		sets := func(mask uint64) []int {
			var out []int
			seen := map[int]bool{}
			for b := 0; b < 64; b++ {
				if s := b % cfg.UopCache.Sets; mask&(1<<b) != 0 && !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
			return out
		}
		ways := 1 + int(shape&0xf)%cfg.UopCache.Ways
		lines := 1 + int(shape>>4)%uopcache.MaxLinesPerRegion
		footprint := func(mask uint64) uopcache.FootprintResult {
			fp := uopcache.FootprintResult{Sets: map[int]int{}}
			vs := sets(mask)
			if len(vs) == 0 {
				return fp
			}
			vspec := codegen.ProbeChain(0x100000, vs, ways, "vic")
			vspec.NumSets = cfg.UopCache.Sets
			for _, s := range vs {
				for w := 0; w < ways; w++ {
					fp.Regions = append(fp.Regions, uopcache.RegionFootprint{
						Region: vspec.RegionAddr(s, w), Set: s, Ways: lines, Cacheable: true,
					})
				}
				fp.Sets[s] = ways * lines
			}
			return fp
		}
		taken, fall, div := footprint(takenMask), footprint(fallMask), sets(probeMask)
		got, gotErr := ProbeModelWith(cfg, primeN, runsN, taken, fall, div)
		want, wantErr := ProbeModelFullReplay(cfg, primeN, runsN, taken, fall, div)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: ProbeModel error %v, full replay error %v", p.Name, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ProbeModel\n%+v\nfull replay\n%+v", p.Name, got, want)
		}
	})
}
