package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"

	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

// difftestWorkers is the sweep's worker count: the load goroutines of
// this workload.
const difftestWorkers = 2

// difftestBatch is how many points one parsweep.MapArena call runs; the
// deadline is checked between batches, and a batch's tail leaves at most
// one point's time idle on one worker.
const difftestBatch = 60

// warmUpIndex is the first op index of the set-up's warm-up points, far
// beyond any measured op, so warm-up never runs a measured victim.
const warmUpIndex = 900_000

// difftestSweep runs one differential point per op: generate a victim,
// predict both directions statically, and measure them on a
// checkpointed core. Op i uses victim seed (seed-1)·10⁶+i+1 under
// profile.All()[i%5].
type difftestSweep struct {
	hs     []*difftest.Harness
	arenas [difftestWorkers]*cpu.Arena
	seed   int64

	mu         sync.Mutex // guards the counter-pass totals below
	counters   simCounters
	worstRel   float64
	violations int
}

func setupDifftest(seed int64) (system, error) {
	s := &difftestSweep{seed: seed}
	for _, p := range profile.All() {
		s.hs = append(s.hs, difftest.NewHarness(p))
	}
	for w := range s.arenas {
		s.arenas[w] = new(cpu.Arena)
	}
	warm := newRecorder(16, false, false)
	s.sweep(warm, warmUpIndex)
	if len(warm.fails) > 0 {
		return nil, fmt.Errorf("warm-up point failed: %v", warm.fails)
	}
	return s, nil
}

func (s *difftestSweep) run(r *recorder) { s.sweep(r, 0) }

// sweep runs batches of ops on the worker arenas until r stops. Op
// index i runs input index base+i.
func (s *difftestSweep) sweep(r *recorder, base int) {
	for {
		lo, hi := r.claimBatch(difftestBatch)
		if hi <= lo {
			return
		}
		var mu sync.Mutex
		free := s.arenas[:]
		// Each pool worker takes one arena for the batch; the pool joins
		// its workers before returning, so the arenas are free again for
		// the next batch.
		take := func() *cpu.Arena {
			mu.Lock()
			defer mu.Unlock()
			a := free[0]
			free = free[1:]
			return a
		}
		// Points report failures through the recorder, so the pool never
		// sees an error.
		_, _ = parsweep.MapArena(parsweep.Options{Workers: difftestWorkers}, hi-lo, take,
			func(a *cpu.Arena, j int) (struct{}, error) {
				i := lo + j
				r.op(i, func(root int32) ([sha256.Size]byte, error) { return s.point(r, a, base+i, i, root) })
				return struct{}{}, nil
			})
	}
}

// point runs input index in as op i.
func (s *difftestSweep) point(r *recorder, a *cpu.Arena, in, i int, root int32) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	h := s.hs[in%len(s.hs)]
	seed := uint64(s.seed-1)*1_000_000 + uint64(in) + 1

	sp := r.begin("difftest.generate", i, root)
	v, err := h.Generate(seed)
	r.end(sp)
	if err != nil {
		return zero, err
	}
	sp = r.begin("difftest.predict", i, root)
	pred, err := h.Predict(v)
	r.end(sp)
	if err != nil {
		return zero, err
	}
	sp = r.begin("difftest.runner_build", i, root)
	pr := h.NewPointRunner(v, a)
	r.end(sp)
	measure := func(name string, secret int64) (difftest.Point, error) {
		sp := r.begin(name, i, root)
		defer r.end(sp)
		return pr.Measure(secret)
	}
	taken, err := measure("difftest.measure_train", 1)
	if err != nil {
		return zero, err
	}
	fall, err := measure("difftest.measure_train", 0)
	if err != nil {
		return zero, err
	}
	again, err := measure("difftest.measure_restore", 1)
	if err != nil {
		return zero, err
	}
	r.cycles.Add(taken.TotalCycles + fall.TotalCycles + again.TotalCycles)

	res := difftest.Result{
		Seed: seed, PredTaken: pred.Taken, PredFall: pred.Fall,
		MeasTaken: taken.Delta, MeasFall: fall.Delta,
		Victim: v, Prediction: &pred, Profile: h.Profile.Name, NoDSB: !h.Profile.HasDSB(),
	}
	sp = r.begin("difftest.validate", i, root)
	verdict := "ok"
	if err := res.Validate(); err != nil {
		// A contract violation is a property of the model, counted in
		// difftest.contract_violations, not a failed op.
		verdict = err.Error()
	}
	r.end(sp)

	var d digester
	d.str(h.Profile.Name)
	d.u64(seed, uint64(pred.Taken), uint64(pred.Fall))
	for _, p := range []difftest.Point{taken, fall} {
		d.u64(uint64(p.Delta), uint64(p.WarmSwitches), uint64(p.ColdSwitches), p.SkippedCycles, p.TotalCycles)
	}
	d.str(verdict)
	digest := d.sum()

	if again != taken {
		return digest, fmt.Errorf("op %d: restored Measure(1) %+v differs from the first %+v", i, again, taken)
	}
	if r.counting {
		return digest, s.count(h, v, a, res, [2]difftest.Point{taken, fall}, verdict != "ok")
	}
	return digest, nil
}

// Training runs and cycle budget of PointRunner.Measure's protocol,
// which count replays.
const (
	replayTrainRuns = 3
	replayMaxCycles = 200_000
)

// count adds one point to the counter-pass totals: the model-accuracy
// figures of its result, and the simulated counters of the timed runs
// of both directions, replayed on a fresh core. PointRunner keeps its
// core private, so the replay repeats its protocol in public calls: the
// training runs, then the timed ones, a warm run, a µop-cache flush and
// a cold run. The timed runs must give the points Measure returned
// (pts, for secrets 1 and 0), so the counters always describe runs
// Measure made; if PointRunner's protocol changes them, the op fails.
func (s *difftestSweep) count(h *difftest.Harness, v *difftest.Victim, a *cpu.Arena, res difftest.Result, pts [2]difftest.Point, violated bool) error {
	for k, secret := range []int64{1, 0} {
		c := cpu.NewWith(h.CPUConfig(), a)
		c.LoadProgram(v.Prog)
		c.Mem().Write(difftest.SecretAddr, 1, secret)
		var before coreSnap
		var timed [2]cpu.RunResult // warm, cold
		for run := 0; run < replayTrainRuns+2; run++ {
			switch run {
			case replayTrainRuns:
				before = snapCore(c)
			case replayTrainRuns + 1:
				c.FlushUopCache()
			}
			out := c.Run(0, v.Entry, replayMaxCycles)
			if out.TimedOut {
				return fmt.Errorf("victim seed %d: replay run %d timed out", v.Seed, run)
			}
			if run >= replayTrainRuns {
				timed[run-replayTrainRuns] = out
			}
		}
		warm, cold := timed[0], timed[1]
		got := difftest.Point{
			Delta:         int(cold.Cycles) - int(warm.Cycles),
			WarmSwitches:  int(warm.Counters.Get(perfctr.DSB2MITESwitches)),
			ColdSwitches:  int(cold.Counters.Get(perfctr.DSB2MITESwitches)),
			SkippedCycles: warm.Counters.Get(perfctr.SkippedCycles) + cold.Counters.Get(perfctr.SkippedCycles),
			TotalCycles:   warm.Cycles + cold.Cycles,
		}
		if got != pts[k] {
			return fmt.Errorf("victim seed %d secret %d: counter replay gives %+v, Measure gave %+v", v.Seed, secret, got, pts[k])
		}
		after := snapCore(c)
		s.mu.Lock()
		s.counters.add(before, after)
		s.mu.Unlock()
	}
	worst := 0.0
	if !res.NoDSB {
		for _, pm := range [][2]int{{res.PredTaken, res.MeasTaken}, {res.PredFall, res.MeasFall}} {
			if pm[1] > 0 {
				worst = math.Max(worst, math.Abs(float64(pm[0]-pm[1]))/float64(pm[1]))
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.ops++
	s.worstRel = math.Max(s.worstRel, worst)
	if violated {
		s.violations++
	}
	return nil
}

func (s *difftestSweep) spanMetrics(r *recorder, m map[string]float64) {
	m["difftest.generate_ms"] = median(r.spanMs("difftest.generate"))
	m["difftest.predict_ms"] = median(r.spanMs("difftest.predict"))
	m["difftest.runner_build_ms"] = median(r.spanMs("difftest.runner_build"))
	m["difftest.measure_train_ms"] = median(r.spanMs("difftest.measure_train"))
	m["difftest.measure_restore_ms"] = median(r.spanMs("difftest.measure_restore"))
	var busy int64
	for i, d := range r.done {
		if d {
			busy += r.lat[i]
		}
	}
	m["parsweep.busy_share"] = float64(busy) / (difftestWorkers * float64(r.active))
}

func (s *difftestSweep) counterMetrics(m map[string]float64) {
	s.counters.report(m)
	m["difftest.worst_rel_err"] = s.worstRel
	m["difftest.contract_violations"] = float64(s.violations)
}

func (s *difftestSweep) close() {}
