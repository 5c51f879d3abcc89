// Benchmarks for the checkpointed measurement paths: one difftest
// point measured with a fresh PointRunner per point and cycle skip
// disabled (checkpoint=off) and with trained-checkpoint forking plus
// the event-driven fast path (checkpoint=on), and one channel
// calibration. The =on variant reports the measured speedup over an
// inline baseline; it and the calibration report the fraction of
// simulated cycles the fast path crossed in single steps.
package deaduops_test

import (
	"testing"
	"time"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint/difftest"
)

// difftestPointSeed picks one mid-corpus victim; any seed works, the
// checkpointed and fresh paths are equivalent on all of them
// (TestPointRunnerMatchesMeasure).
const difftestPointSeed = 7

// freshPoint measures one point on a new PointRunner: each direction's
// first Measure restores the pristine checkpoint (a fresh core) and
// pays the full training prefix.
func freshPoint(b *testing.B, h *difftest.Harness, v *difftest.Victim, a *cpu.Arena) {
	b.Helper()
	r := h.NewPointRunner(v, a)
	for _, secret := range []int64{1, 0} {
		if _, err := r.Measure(secret); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifftestPoint measures one full difftest point (both
// directions' refill deltas and switch counts) per iteration.
func BenchmarkDifftestPoint(b *testing.B) {
	h := difftest.NewHarness(profile.Default())
	v, err := h.Generate(difftestPointSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("checkpoint=off", func(b *testing.B) {
		hOff := h.WithoutCycleSkip()
		a := new(cpu.Arena)
		freshPoint(b, hOff, v, a) // warm the arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			freshPoint(b, hOff, v, a)
		}
	})
	b.Run("checkpoint=on", func(b *testing.B) {
		// Inline baseline: the fresh-runner path on a skip-disabled
		// harness, so the reported speedup is measured in-process
		// rather than inferred across sub-benchmarks.
		hOff := h.WithoutCycleSkip()
		aOff := new(cpu.Arena)
		freshPoint(b, hOff, v, aOff)
		const baseReps = 3
		t0 := time.Now()
		for i := 0; i < baseReps; i++ {
			freshPoint(b, hOff, v, aOff)
		}
		baseNs := float64(time.Since(t0).Nanoseconds()) / baseReps

		a := new(cpu.Arena)
		r := h.NewPointRunner(v, a)
		var skipped, total uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, secret := range []int64{1, 0} {
				pt, err := r.Measure(secret)
				if err != nil {
					b.Fatal(err)
				}
				skipped += pt.SkippedCycles
				total += pt.TotalCycles
			}
		}
		b.StopTimer()
		if total > 0 {
			b.ReportMetric(float64(skipped)/float64(total), "skipped/total-cycles")
		}
		if el := b.Elapsed(); el > 0 && b.N > 0 {
			b.ReportMetric(baseNs/(float64(el.Nanoseconds())/float64(b.N)), "speedup-vs-fresh")
		}
	})
}

// BenchmarkCalibrate measures one full channel calibration (4 rounds,
// hit and miss each) per iteration on a persistent Intel core.
func BenchmarkCalibrate(b *testing.B) {
	const primeIters, probeIters, rounds = 20, 5, 4
	g := attack.DefaultGeometry()
	recv, err := attack.Build(attack.Tiger(0x40000, g, "recv"))
	if err != nil {
		b.Fatal(err)
	}
	send, err := attack.Build(attack.Tiger(0x80000, g, "send"))
	if err != nil {
		b.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		b.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	s0 := c.Counters(0).Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Calibrate(c, recv, send, primeIters, probeIters, rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := c.Counters(0).Snapshot().Delta(s0)
	if total := d.Get(perfctr.Cycles); total > 0 {
		b.ReportMetric(float64(d.Get(perfctr.SkippedCycles))/float64(total), "skipped/total-cycles")
	}
}
