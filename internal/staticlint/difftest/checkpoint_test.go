package difftest

// checkpoint_test.go gates the two perf machineries this package rides
// on: the event-driven cycle-skip fast path (TestSkipCyclesEquivalence
// proves skip on/off is bit-identical over the full corpus, per
// profile) and the checkpoint-based PointRunner
// (TestPointRunnerMatchesMeasure proves it reproduces a fresh core's
// train-warm-flush-cold sequence exactly, including on repeat
// measurements served from trained checkpoints; TestProbeMatchesFreshCore
// proves the same for the probe protocol RunProbeWith runs on it).

import (
	"fmt"
	"reflect"
	"testing"

	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
	"deaduops/internal/perfctr"
	"deaduops/internal/staticlint"
)

// measureSequence replays PointRunner.Measure's run sequence on a
// fresh core built from cfg — train ×trainRuns, warm, flush, cold —
// returning every run's full RunResult for byte-level comparison.
func measureSequence(cfg cpu.Config, v *Victim, a *cpu.Arena, secret int64) ([trainRuns + 2]cpu.RunResult, error) {
	var out [trainRuns + 2]cpu.RunResult
	c := cpu.NewWith(cfg, a)
	c.LoadProgram(v.Prog)
	c.Mem().Write(SecretAddr, 1, secret)
	for i := 0; i < trainRuns+1; i++ {
		out[i] = c.Run(0, v.Entry, maxCycles)
	}
	c.FlushUopCache()
	out[trainRuns+1] = c.Run(0, v.Entry, maxCycles)
	for i, r := range out {
		if r.TimedOut {
			return out, fmt.Errorf("seed %d: run %d timed out", v.Seed, i)
		}
	}
	return out, nil
}

// equalModuloSkip compares two RunResults field by field and counter
// by counter, ignoring only SkippedCycles — the fast path's audit
// counter, the one value allowed (required) to differ.
func equalModuloSkip(a, b cpu.RunResult) error {
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.TimedOut != b.TimedOut {
		return fmt.Errorf("results diverged: %+v vs %+v", a, b)
	}
	for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
		if e == perfctr.SkippedCycles {
			continue
		}
		if x, y := a.Counters.Get(e), b.Counters.Get(e); x != y {
			return fmt.Errorf("counter %d diverged: %d vs %d", e, x, y)
		}
	}
	return nil
}

// TestSkipCyclesEquivalence is the acceptance gate for the fast path:
// over the full 200-seed corpus, both secret directions, and every
// profile in the matrix, a core with the fast path enabled must
// produce runs bit-identical — cycles, retirement, every counter
// except the SkippedCycles audit — to a core ticking every cycle. It
// also asserts the path is live: across the corpus the skipped-cycle
// total must be nonzero, or the equivalence would be vacuous.
func TestSkipCyclesEquivalence(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			cfgOn := h.CPUConfig()
			cfgOff := h.WithoutCycleSkip().CPUConfig()
			skipped, err := parsweep.MapArena(parsweep.Options{}, corpusSize,
				func() *cpu.Arena { return new(cpu.Arena) },
				func(a *cpu.Arena, i int) (uint64, error) {
					v, err := h.Generate(uint64(i + 1))
					if err != nil {
						return 0, err
					}
					var total uint64
					for _, secret := range []int64{1, 0} {
						on, err := measureSequence(cfgOn, v, a, secret)
						if err != nil {
							return 0, err
						}
						off, err := measureSequence(cfgOff, v, a, secret)
						if err != nil {
							return 0, err
						}
						for r := range on {
							if err := equalModuloSkip(on[r], off[r]); err != nil {
								return 0, fmt.Errorf("seed %d secret %d run %d: %w", v.Seed, secret, r, err)
							}
							if got := off[r].Counters.Get(perfctr.SkippedCycles); got != 0 {
								return 0, fmt.Errorf("seed %d: disabled fast path skipped %d cycles", v.Seed, got)
							}
							total += on[r].Counters.Get(perfctr.SkippedCycles)
						}
					}
					return total, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			for _, s := range skipped {
				total += s
			}
			if total == 0 {
				t.Fatalf("fast path never engaged across %d seeds under %s", corpusSize, p.Name)
			}
			t.Logf("%s: %d cycles skipped across the corpus, all runs bit-identical", p.Name, total)
		})
	}
}

// pointSeeds bounds the PointRunner equality corpus per profile; each
// seed costs two fresh-core sequences plus four checkpointed
// measurements.
const pointSeeds = 40

// TestPointRunnerMatchesMeasure proves the checkpointed PointRunner
// reproduces a fresh core exactly: per (seed, secret), its Point —
// delta, switch counts, skipped and total cycles — must equal the one
// measureSequence's warm and cold runs give, on the first call
// (trained from the pristine checkpoint) and again on a repeat call
// (served from the trained checkpoint).
func TestPointRunnerMatchesMeasure(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			_, err := parsweep.MapArena(parsweep.Options{}, pointSeeds,
				func() *cpu.Arena { return new(cpu.Arena) },
				func(a *cpu.Arena, i int) (struct{}, error) {
					var zero struct{}
					v, err := h.Generate(uint64(i + 1))
					if err != nil {
						return zero, err
					}
					// The fresh-core sequences run before the runner is
					// built: NewWith hands the arena's memory image to each
					// new core, so at most one core per arena is live.
					var fresh [2]Point
					for d, secret := range []int64{1, 0} {
						seq, err := measureSequence(h.CPUConfig(), v, a, secret)
						if err != nil {
							return zero, err
						}
						fresh[d] = pointOf(seq[trainRuns], seq[trainRuns+1])
					}
					r := h.NewPointRunner(v, a)
					for d, secret := range []int64{1, 0} {
						for pass := 0; pass < 2; pass++ {
							pt, err := r.Measure(secret)
							if err != nil {
								return zero, err
							}
							if pt != fresh[d] {
								return zero, fmt.Errorf("seed %d secret %d pass %d: point %+v, fresh core %+v",
									v.Seed, secret, pass, pt, fresh[d])
							}
							if pt.TotalCycles == 0 {
								return zero, fmt.Errorf("seed %d: empty measurement window", v.Seed)
							}
						}
					}
					return zero, nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// probeFreshCore is the probe protocol on a fresh core per direction,
// the reference RunProbeWith's PointRunner must reproduce: a new core,
// the merged victim+receiver image loaded, the secret written,
// trainRuns training runs, then one attack.MeasureRounds round with
// the victim's runs as the sender activity.
func probeFreshCore(h *Harness, seed uint64, a *cpu.Arena) (ProbeResult, error) {
	g, err := h.newProbeRig(seed)
	if err != nil {
		return ProbeResult{}, err
	}
	victim := func(c *cpu.CPU) error {
		if res := c.Run(0, g.v.Entry, maxCycles); res.TimedOut {
			return fmt.Errorf("seed %d: victim run timed out", seed)
		}
		return nil
	}
	var hit, miss [2]int
	for d, secret := range []int64{1, 0} {
		c := cpu.NewWith(h.CPUConfig(), a)
		c.LoadProgram(g.merged.Prog)
		c.Mem().Write(SecretAddr, 1, secret)
		for i := 0; i < trainRuns; i++ {
			if err := victim(c); err != nil {
				return ProbeResult{}, err
			}
		}
		r, err := attack.MeasureRounds(c, g.recv, func() error {
			for i := 0; i < staticlint.DefaultVictimRuns; i++ {
				if err := victim(c); err != nil {
					return err
				}
			}
			return nil
		}, staticlint.DefaultPrimeTraversals, staticlint.DefaultProbeIters, 1)
		if err != nil {
			return ProbeResult{}, err
		}
		hit[d], miss[d] = int(r.Hit[0]), int(r.Miss[0])
	}
	return ProbeResult{
		Seed:         seed,
		Pred:         g.hist,
		MeasHitTaken: hit[0],
		MeasHitFall:  hit[1],
		MeasTaken:    miss[0],
		MeasFall:     miss[1],
		Victim:       g.v,
	}, nil
}

// TestProbeMatchesFreshCore holds RunProbeWith, which trains each
// direction on one checkpointed PointRunner, to the fresh-core probe
// protocol field by field over the full corpus under every profile
// with a DSB: every measured probe, the prediction and the victim must
// be identical.
func TestProbeMatchesFreshCore(t *testing.T) {
	for _, p := range matrixProfiles(t) {
		if !p.HasDSB() {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			h := NewHarness(p)
			_, err := parsweep.MapArena(parsweep.Options{}, corpusSize,
				func() *cpu.Arena { return new(cpu.Arena) },
				func(a *cpu.Arena, i int) (struct{}, error) {
					seed := uint64(i + 1)
					// The fresh cores run before the runner is built: NewWith
					// hands the arena's memory image to each new core.
					want, err := probeFreshCore(h, seed, a)
					if err != nil {
						return struct{}{}, err
					}
					got, err := h.RunProbeWith(seed, a)
					if err != nil {
						return struct{}{}, err
					}
					if !reflect.DeepEqual(got, want) {
						return struct{}{}, fmt.Errorf("seed %d: RunProbeWith %+v, fresh core %+v", seed, got, want)
					}
					return struct{}{}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
