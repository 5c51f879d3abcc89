package experiments

import (
	"fmt"

	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

func init() {
	Registry["fig4"] = func(o Options) (Renderable, error) { return Fig4Placement(o) }
}

// Fig4Placement reproduces Fig 4: loops of 2, 4, and 8 same-set regions
// with a growing number of micro-ops per region. The µops delivered
// from the micro-op cache (DSB) plateau at the placement-rule limits:
// a region may hold at most 18 µops (3 lines), and the set's 8 ways
// bound the product regions × lines.
func Fig4Placement(o Options) (*Figure, error) {
	fig := &Figure{
		ID:    "fig4",
		Title: "Micro-op cache placement rules",
		XAxis: "Micro-Ops per Region",
		YAxis: "Micro-Ops from DSB per region per iteration",
	}
	regionCounts := []int{2, 4, 8}
	const maxUops = 24
	// Flatten the 3×24 grid into one point list so the pool can chew
	// through every cell concurrently, then fold back into series.
	vals, err := sweep(o, len(regionCounts)*maxUops, func(a *cpu.Arena, i int) (float64, error) {
		return fig4Point(regionCounts[i/maxUops], i%maxUops+1, a)
	})
	if err != nil {
		return nil, err
	}
	for ri, regions := range regionCounts {
		xs := make([]float64, maxUops)
		ys := make([]float64, maxUops)
		for ui := 0; ui < maxUops; ui++ {
			xs[ui] = float64(ui + 1)
			ys[ui] = vals[ri*maxUops+ui] / float64(regions)
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("%d regions", regions),
			X:     xs, Y: ys,
		})
	}
	return fig, nil
}

// fig4Point returns steady-state DSB µops per iteration, less the loop
// tail's, for a loop of `regions` same-set regions of `uops` µops each.
func fig4Point(regions, uops int, a *cpu.Arena) (float64, error) {
	spec := &codegen.ChainSpec{
		Base:         benchBase,
		Sets:         []int{0},
		Ways:         regions,
		NopPerRegion: uops - 1,
		NopLen:       1,
		Label:        "plc",
	}
	prog, err := spec.LoopProgram(tailAddrFor(spec))
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(prog)
	res, err := steady(c, prog.Entry, 0, fig3Warmup, fig3Iters)
	if err != nil {
		return 0, fmt.Errorf("fig4 (%d regions × %d µops): %w", regions, uops, err)
	}
	return max(perIter(res[0], perfctr.DSBUops, fig3Iters)-loopTailUops, 0), nil
}

// loopTailUops is the counted loop tail's share of DSB µops per
// traversal (sub+cmp+jcc fuse to 2 µops), which Figs 4 and 5 subtract
// to report the chain regions alone.
const loopTailUops = 2
