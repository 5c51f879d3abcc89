package difftest

// parallel.go fans the differential corpora out over a bounded worker
// pool. Every seed is an independent measurement — Generate is a pure
// function of the seed and each seed runs on its own core — so
// the corpus runners only need parsweep's ordering guarantee: results
// come back seed-ordered and the reported failure is the
// lowest-indexed one, making corpus runs reproducible at any worker
// count.

import (
	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
)

// RunMany runs every seed through the victim-side harness (RunWith)
// across workers pool goroutines (0 selects GOMAXPROCS), one reusable
// simulator arena per worker. Results are seed-ordered.
func (h *Harness) RunMany(seeds []uint64, workers int) ([]Result, error) {
	return mapSeeds(seeds, workers, h.RunWith)
}

// RunShapeMany runs every seed through the victim-side harness with
// the victim shape pinned (RunShapeWith) across workers pool
// goroutines, one arena per worker. Results are seed-ordered.
func (h *Harness) RunShapeMany(seeds []uint64, workers int, shape Shape) ([]Result, error) {
	return mapSeeds(seeds, workers, func(seed uint64, a *cpu.Arena) (Result, error) {
		return h.RunShapeWith(seed, shape, a)
	})
}

// RunProbeMany runs every seed through the attacker-side harness
// (RunProbeWith) across workers pool goroutines, one arena per worker.
// Results are seed-ordered.
func (h *Harness) RunProbeMany(seeds []uint64, workers int) ([]ProbeResult, error) {
	return mapSeeds(seeds, workers, h.RunProbeWith)
}

// mapSeeds runs run over every seed across workers pool goroutines,
// one arena per worker, returning the results seed-ordered.
func mapSeeds[T any](seeds []uint64, workers int, run func(uint64, *cpu.Arena) (T, error)) ([]T, error) {
	return parsweep.MapArena(parsweep.Options{Workers: workers}, len(seeds),
		func() *cpu.Arena { return new(cpu.Arena) },
		func(a *cpu.Arena, i int) (T, error) { return run(seeds[i], a) })
}

// SeedRange returns the contiguous seed list [lo, hi] — the corpus
// tests and benchmarks share it.
func SeedRange(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}
