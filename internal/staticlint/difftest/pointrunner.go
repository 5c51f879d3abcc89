package difftest

// pointrunner.go is the harness's one simulator measurement. It
// measures one victim repeatedly without re-paying core construction
// or predictor training on every call: a PointRunner builds the core
// once, snapshots it immediately after program load (the pristine
// checkpoint), and snapshots it again after each direction's training
// runs settle the predictors and fill the micro-op cache (the
// per-direction trained checkpoints). Repeat measurements restore the
// trained checkpoint and pay only the two timed runs.
//
// Equivalence is exact, not approximate: restoring the pristine
// checkpoint reproduces a fresh core bit for bit (cycle clock zero,
// counters zero, cold caches, loaded image), so a PointRunner's first
// Measure per direction replays a fresh core's train-warm-flush-cold
// sequence exactly, and every later Measure replays the first one's
// timed tail from the identical trained state.
// TestPointRunnerMatchesMeasure pins this across the corpus.

import (
	"fmt"

	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

// Point bundles everything one (victim, secret) measurement produces:
// the refill delta, the warm/cold DSB→MITE switch counts, and the
// fast-path audit counters (skipped vs total cycles over the two timed
// runs) the checkpoint benchmarks report.
type Point struct {
	// Delta is the cold run's cycles minus the warm run's: the
	// DSB-refill cost of the executed path. Branch predictors and data
	// caches stay warm throughout (only the micro-op cache is flushed),
	// so no misprediction or memory-latency noise enters it.
	Delta int
	// WarmSwitches and ColdSwitches are the two timed runs'
	// DSB2MITESwitches counter reads — the per-run transition counts
	// the quantifier predicts as WarmSwitchPoints/ColdSwitchPoints.
	// They are exact counter reads, so the validation contract is
	// equality, not a tolerance band.
	WarmSwitches int
	ColdSwitches int
	// SkippedCycles and TotalCycles aggregate the warm and cold timed
	// runs: how much of the measured window the event-driven fast path
	// crossed in single steps. Training runs are excluded — they are
	// not part of the measurement.
	SkippedCycles uint64
	TotalCycles   uint64
}

// PointRunner measures one victim on a single reusable core via
// checkpoints. Build one per victim with Harness.NewPointRunner; it is
// not safe for concurrent use, and building a new PointRunner on the
// same arena recycles the previous one's checkpoint buffers (the
// parsweep pattern: one point in flight per worker).
type PointRunner struct {
	h        *Harness
	v        *Victim
	c        *cpu.CPU
	arena    *cpu.Arena
	nextBuf  int
	pristine *cpu.Checkpoint
	trained  map[int64]*cpu.Checkpoint
}

// NewPointRunner builds a core for v on the harness's profile, drawing
// its recycled structures and checkpoint buffers from arena (which may
// be nil), and takes the pristine checkpoint: program loaded, secret
// not yet written, nothing run.
func (h *Harness) NewPointRunner(v *Victim, a *cpu.Arena) *PointRunner {
	c := cpu.NewWith(h.cpuCfg, a)
	c.LoadProgram(v.Prog)
	r := &PointRunner{
		h: h, v: v, c: c, arena: a,
		trained: make(map[int64]*cpu.Checkpoint, 2),
	}
	r.pristine = r.nextCheckpointBuf()
	c.Checkpoint(r.pristine)
	return r
}

func (r *PointRunner) nextCheckpointBuf() *cpu.Checkpoint {
	ck := r.arena.CheckpointBuf(r.nextBuf)
	r.nextBuf++
	return ck
}

// Measure returns the point for one secret direction. The first call
// per direction restores the pristine checkpoint, writes the secret,
// runs the training prefix, and checkpoints the trained core; repeat
// calls restore the trained checkpoint and pay only the warm and cold
// timed runs.
func (r *PointRunner) Measure(secret int64) (Point, error) {
	if ck := r.trained[secret]; ck != nil {
		r.c.Restore(ck)
	} else {
		r.c.Restore(r.pristine)
		r.c.Mem().Write(SecretAddr, 1, secret)
		for i := 0; i < trainRuns; i++ {
			if res := r.c.Run(0, r.v.Entry, maxCycles); res.TimedOut {
				return Point{}, fmt.Errorf("difftest seed %d: train run timed out", r.v.Seed)
			}
		}
		ck = r.nextCheckpointBuf()
		r.c.Checkpoint(ck)
		r.trained[secret] = ck
	}
	warm := r.c.Run(0, r.v.Entry, maxCycles)
	if warm.TimedOut {
		return Point{}, fmt.Errorf("difftest seed %d: warm run timed out", r.v.Seed)
	}
	r.c.FlushUopCache()
	cold := r.c.Run(0, r.v.Entry, maxCycles)
	if cold.TimedOut {
		return Point{}, fmt.Errorf("difftest seed %d: cold run timed out", r.v.Seed)
	}
	return pointOf(warm, cold), nil
}

// pointOf reduces the warm and cold timed runs to their Point.
func pointOf(warm, cold cpu.RunResult) Point {
	return Point{
		Delta:        int(cold.Cycles) - int(warm.Cycles),
		WarmSwitches: int(warm.Counters.Get(perfctr.DSB2MITESwitches)),
		ColdSwitches: int(cold.Counters.Get(perfctr.DSB2MITESwitches)),
		SkippedCycles: warm.Counters.Get(perfctr.SkippedCycles) +
			cold.Counters.Get(perfctr.SkippedCycles),
		TotalCycles: warm.Cycles + cold.Cycles,
	}
}

// WithoutCycleSkip returns a copy of h whose simulator cores tick every
// cycle instead of using the event-driven fast path. Results are
// bit-identical either way (TestSkipCyclesEquivalence); the copy
// exists as the baseline side of the checkpoint benchmarks and the
// skip-equivalence gates.
func (h *Harness) WithoutCycleSkip() *Harness {
	hh := *h
	hh.cpuCfg.DisableCycleSkip = true
	return &hh
}
