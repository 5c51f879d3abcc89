package experiments

import (
	"fmt"

	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

func init() {
	Registry["fig5"] = func(o Options) (Renderable, error) { return Fig5Replacement(o) }
}

// Fig5Replacement reproduces Fig 5: a main loop and an evicting loop,
// each jumping through eight ways of set 0 with six µops per line, are
// interleaved with varying iteration counts. The per-iteration µops the
// main loop receives from the micro-op cache reveal the hotness-based
// replacement policy: the evictor only displaces the main loop's lines
// once its access count exceeds theirs.
func Fig5Replacement(o Options) (*Figure, error) {
	g, err := Fig5ReplacementGrid(o)
	if err != nil {
		return nil, err
	}
	// Flatten the grid into one series per main-loop count so the
	// Figure interfaces stay uniform; Render of the Grid is available
	// via Fig5ReplacementGrid.
	fig := &Figure{
		ID:    g.ID,
		Title: g.Title,
		XAxis: g.XAxis,
		YAxis: "Micro-Ops from micro-op cache (per main iteration)",
	}
	for yi, y := range g.YVals {
		s := Series{Label: fmt.Sprintf("main=%d", y)}
		for xi, x := range g.XVals {
			s.X = append(s.X, float64(x))
			s.Y = append(s.Y, g.Cell[yi][xi])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig5ReplacementGrid runs the replacement experiment and returns the
// heat-map form matching the paper's figure.
func Fig5ReplacementGrid(o Options) (*Grid, error) {
	mainSpec := &codegen.ChainSpec{
		Base: benchBase, Sets: []int{0}, Ways: 8,
		NopPerRegion: 5, NopLen: 1, Label: "main",
	}
	evictSpec := &codegen.ChainSpec{
		Base: benchBase + 16*codegen.WayStride, Sets: []int{0}, Ways: 8,
		NopPerRegion: 5, NopLen: 1, Label: "evict",
	}
	g := &Grid{
		ID:    "fig5",
		Title: "µops from micro-op cache while an interleaved loop evicts",
		XAxis: "Iterations of the Evicting Loop",
		YAxis: "Iterations of the Main Loop",
	}
	for x := 0; x <= 12; x++ {
		g.XVals = append(g.XVals, x)
	}
	for y := 1; y <= 12; y++ {
		g.YVals = append(g.YVals, y)
	}
	nx := len(g.XVals)
	cells, err := sweep(o, len(g.YVals)*nx, func(a *cpu.Arena, i int) (float64, error) {
		return fig5Cell(mainSpec, evictSpec, g.YVals[i/nx], g.XVals[i%nx], a)
	})
	if err != nil {
		return nil, err
	}
	for yi := range g.YVals {
		g.Cell = append(g.Cell, cells[yi*nx:(yi+1)*nx])
	}
	return g, nil
}

// fig5Rounds is how many times each Fig 5 cell interleaves the two
// loops; the cold first round is discarded.
const fig5Rounds = 6

// fig5Cell interleaves the two loops for fig5Rounds rounds and returns
// the average µops per main-loop iteration delivered from the micro-op
// cache, less the loop tail's, over every round but the cold first.
func fig5Cell(mainSpec, evictSpec *codegen.ChainSpec, mainIters, evictIters int, a *cpu.Arena) (float64, error) {
	// Tails land in set 16, far from the probed set 0.
	mainTail := mainSpec.Base + 33*codegen.WayStride + 16*codegen.RegionSize
	evictTail := evictSpec.Base + 33*codegen.WayStride + 16*codegen.RegionSize
	mainProg, err := mainSpec.LoopProgram(mainTail)
	if err != nil {
		return 0, err
	}
	evictProg, err := evictSpec.LoopProgram(evictTail)
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	var dsb uint64
	for r := 0; r < fig5Rounds; r++ {
		c.LoadProgram(mainProg)
		res, err := attack.RunLoop(c, mainProg.Entry, 0, int64(mainIters))
		if err != nil {
			return 0, fmt.Errorf("fig5 main loop: %w", err)
		}
		if r > 0 { // skip the cold first round
			dsb += res[0].Counters.Get(perfctr.DSBUops)
		}
		if evictIters > 0 {
			c.LoadProgram(evictProg)
			if _, err := attack.RunLoop(c, evictProg.Entry, 0, int64(evictIters)); err != nil {
				return 0, fmt.Errorf("fig5 evicting loop: %w", err)
			}
		}
	}
	perMain := float64(dsb) / float64(fig5Rounds-1) / float64(mainIters)
	return max(perMain-loopTailUops, 0), nil
}
