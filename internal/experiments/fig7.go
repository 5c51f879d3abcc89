package experiments

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

func init() {
	register("fig7a", func(o Options) (Renderable, error) { return Fig7aSetProbe(o) })
	register("fig7b", func(o Options) (Renderable, error) { return Fig7bSetCount(o) })
}

// fig7Chain builds an 8-way chain loop in the given sets at base.
func fig7Chain(base uint64, sets []int, label string) (*asm.Program, *codegen.ChainSpec, error) {
	spec := &codegen.ChainSpec{
		Base: base, Sets: sets, Ways: 8,
		NopPerRegion: 5, NopLen: 1, Label: label,
	}
	tail := base + uint64(spec.Ways+1)*codegen.WayStride + 20*codegen.RegionSize
	prog, err := spec.LoopProgram(tail)
	if err != nil {
		return nil, nil, err
	}
	return prog, spec, nil
}

// Fig7aSetProbe reproduces Fig 7a: T1 places an 8-way region at each of
// the 32 set alignments in turn while T2 hammers set 0. Under Intel's
// static partitioning the threads never contend: T1's legacy-decode
// µops stay near zero for every set probed.
func Fig7aSetProbe(o Options) (*Figure, error) {
	o = o.withDefaults(30, 10, 1)
	const numSets = 32
	ys, err := sweep(o, numSets, func(a *cpu.Arena, set int) (float64, error) {
		t1, _, err := fig7Chain(benchBase, []int{set}, "t1")
		if err != nil {
			return 0, err
		}
		t2, _, err := fig7Chain(benchBase+64*codegen.WayStride, []int{0}, "t2")
		if err != nil {
			return 0, err
		}
		merged, err := asm.Merge(t1, t2)
		if err != nil {
			return 0, err
		}
		c := cpu.NewWith(cpu.Intel(), a)
		c.LoadProgram(merged)
		run := func(iters int64) (cpu.RunResult, error) {
			c.SetReg(0, isa.R14, iters)
			c.SetReg(1, isa.R14, 1<<40)
			res := c.RunSMT(t1.Entry, t2.Entry, maxRunCycle)
			if res[0].TimedOut {
				return res[0], fmt.Errorf("fig7a timed out at set %d", set)
			}
			return res[0], nil
		}
		if _, err := run(int64(o.Warmup)); err != nil {
			return 0, err
		}
		res, err := run(int64(o.Iterations))
		if err != nil {
			return 0, err
		}
		return float64(res.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations), nil
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, numSets)
	for set := range xs {
		xs[set] = float64(set)
	}
	return &Figure{
		ID:     "fig7a",
		Title:  "8-way region probing each set alignment while the sibling fills set 0",
		XAxis:  "Index Bits (5-9) of T1 Blocks",
		YAxis:  "Micro-Ops from Legacy Decode Pipeline (per iteration)",
		Series: []Series{{Label: "SMT T1", X: xs, Y: ys}},
	}, nil
}

// Fig7bSetCount reproduces Fig 7b: T1 streams a growing number of
// 8-way regions in consecutive sets. Single-threaded it can hold 32
// such regions (the whole cache); in SMT mode exactly 16 — the
// partition is organized as 16 8-way sets per thread.
func Fig7bSetCount(o Options) (*Figure, error) {
	o = o.withDefaults(30, 10, 1)
	const maxRegions = 36
	type fig7bPoint struct{ st, smt float64 }
	pts, err := sweep(o, maxRegions, func(a *cpu.Arena, i int) (fig7bPoint, error) {
		n := i + 1
		sets := make([]int, 0, n)
		for s := 0; s < n; s++ {
			sets = append(sets, s%32)
		}
		uniq := sets
		if n > 32 {
			uniq = sets[:32]
		}
		t1, _, err := fig7Chain(benchBase, uniq, "t1")
		if err != nil {
			return fig7bPoint{}, err
		}
		// Single-thread measurement.
		c := cpu.NewWith(cpu.Intel(), a)
		c.LoadProgram(t1)
		c.SetReg(0, isa.R14, int64(o.Warmup))
		if r := c.Run(0, t1.Entry, maxRunCycle); r.TimedOut {
			return fig7bPoint{}, fmt.Errorf("fig7b ST warmup timed out at %d", n)
		}
		c.SetReg(0, isa.R14, int64(o.Iterations))
		st := c.Run(0, t1.Entry, maxRunCycle)
		if st.TimedOut {
			return fig7bPoint{}, fmt.Errorf("fig7b ST run timed out at %d", n)
		}

		// SMT measurement with a PAUSE-spinning sibling.
		t2, err := fig6T2Program(Fig6Pause)
		if err != nil {
			return fig7bPoint{}, err
		}
		merged, err := asm.Merge(t1, t2)
		if err != nil {
			return fig7bPoint{}, err
		}
		cs := cpu.NewWith(cpu.Intel(), a)
		cs.LoadProgram(merged)
		runSMT := func(iters int64) (cpu.RunResult, error) {
			cs.SetReg(0, isa.R14, iters)
			cs.SetReg(1, isa.R14, 1<<40)
			res := cs.RunSMT(t1.Entry, t2.Entry, maxRunCycle)
			if res[0].TimedOut {
				return res[0], fmt.Errorf("fig7b SMT timed out at %d", n)
			}
			return res[0], nil
		}
		if _, err := runSMT(int64(o.Warmup)); err != nil {
			return fig7bPoint{}, err
		}
		smt, err := runSMT(int64(o.Iterations))
		if err != nil {
			return fig7bPoint{}, err
		}
		return fig7bPoint{
			st:  float64(st.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations),
			smt: float64(smt.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, smtY, stY []float64
	for i, p := range pts {
		xs = append(xs, float64(i+1))
		stY = append(stY, p.st)
		smtY = append(smtY, p.smt)
	}
	return &Figure{
		ID:    "fig7b",
		Title: "Number of streamable 8-way regions, single-thread vs SMT",
		XAxis: "Number of 8-Block Regions",
		YAxis: "Micro-Ops from Legacy Decode Pipeline (per iteration)",
		Series: []Series{
			{Label: "SMT", X: xs, Y: smtY},
			{Label: "Single-Thread", X: xs, Y: stY},
		},
	}, nil
}
