package experiments

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

func init() {
	Registry["fig7a"] = func(o Options) (Renderable, error) { return Fig7aSetProbe(o) }
	Registry["fig7b"] = func(o Options) (Renderable, error) { return Fig7bSetCount(o) }
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
		res, err := steady(c, t1.Entry, t2.Entry, fig6Warmup, fig6Iters)
		if err != nil {
			return 0, fmt.Errorf("fig7a at set %d: %w", set, err)
		}
		return perIter(res[0], perfctr.MITEUops, fig6Iters), nil
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
		st, err := steadyMITE(cpu.Intel(), t1, fig6Warmup, fig6Iters, a)
		if err != nil {
			return fig7bPoint{}, fmt.Errorf("fig7b ST at %d: %w", n, err)
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
		c := cpu.NewWith(cpu.Intel(), a)
		c.LoadProgram(merged)
		smt, err := steady(c, t1.Entry, t2.Entry, fig6Warmup, fig6Iters)
		if err != nil {
			return fig7bPoint{}, fmt.Errorf("fig7b SMT at %d: %w", n, err)
		}
		return fig7bPoint{st: st, smt: perIter(smt[0], perfctr.MITEUops, fig6Iters)}, nil
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
