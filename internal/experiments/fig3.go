package experiments

import (
	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

const benchBase = 0x10000 // 1024-aligned code base for microbenchmarks

// fig3Warmup and fig3Iters are the warm-up and measured traversals of
// every Fig 3 and Fig 4 point.
const (
	fig3Warmup = 10
	fig3Iters  = 40
)

func init() {
	Registry["fig3a"] = func(o Options) (Renderable, error) { return Fig3aCacheSize(o) }
	Registry["fig3b"] = func(o Options) (Renderable, error) { return Fig3bAssociativity(o) }
}

// Fig3aCacheSize reproduces Fig 3a: loops of progressively more 32-byte
// regions (3 µops each, the Listing 1 layout); the number of µops
// delivered by the legacy decode pipeline jumps once the loop exceeds
// the 256-line capacity of the micro-op cache.
func Fig3aCacheSize(o Options) (*Figure, error) {
	var ns []int
	for n := 8; n <= 384; n += 8 {
		ns = append(ns, n)
	}
	ys, err := sweep(o, len(ns), func(a *cpu.Arena, i int) (float64, error) {
		prog, err := codegen.SequentialLoop(benchBase, ns[i], 3)
		if err != nil {
			return 0, err
		}
		return steadyMITE(cpu.Intel(), prog, fig3Warmup, fig3Iters, a)
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return &Figure{
		ID:     "fig3a",
		Title:  "Measuring µop cache size by testing progressively larger loops",
		XAxis:  "Number of 32 Byte Regions in the Loop",
		YAxis:  "Micro-Ops from Decode Pipeline (per iteration)",
		Series: []Series{{Label: "mite_uops", X: xs, Y: ys}},
	}, nil
}

// Fig3bAssociativity reproduces Fig 3b: jump chains through regions
// that all map to set 0; legacy-decode µops rise once the chain exceeds
// the 8 ways of the set.
func Fig3bAssociativity(o Options) (*Figure, error) {
	const maxWays = 15
	ys, err := sweep(o, maxWays, func(a *cpu.Arena, i int) (float64, error) {
		spec := &codegen.ChainSpec{
			Base:  benchBase,
			Sets:  []int{0},
			Ways:  i + 1,
			Label: "assoc",
		}
		prog, err := spec.LoopProgram(tailAddrFor(spec))
		if err != nil {
			return 0, err
		}
		return steadyMITE(cpu.Intel(), prog, fig3Warmup, fig3Iters, a)
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, maxWays)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return &Figure{
		ID:     "fig3b",
		Title:  "Measuring the size of one set to determine associativity",
		XAxis:  "Number of 32 Byte Regions in the Loop",
		YAxis:  "Micro-Ops from Decode Pipeline (per iteration)",
		Series: []Series{{Label: "mite_uops", X: xs, Y: ys}},
	}, nil
}

// tailAddrFor picks a loop-tail address clear of the chain's span, in a
// set far from the chain's sets.
func tailAddrFor(spec *codegen.ChainSpec) uint64 {
	span := uint64(spec.Ways+1) * codegen.WayStride
	tail := spec.Base + span + 16*codegen.RegionSize
	return tail
}

// steady runs the counted loop at entry (with sibling on thread 1
// when nonzero) for warmup traversals to reach steady state, then
// measures iters traversals and returns that run's results.
func steady(c *cpu.CPU, entry, sibling uint64, warmup, iters int) ([cpu.NumThreads]cpu.RunResult, error) {
	if _, err := attack.RunLoop(c, entry, sibling, int64(warmup)); err != nil {
		return [cpu.NumThreads]cpu.RunResult{}, err
	}
	return attack.RunLoop(c, entry, sibling, int64(iters))
}

// perIter is counter e of a run of iters traversals, per traversal.
func perIter(r cpu.RunResult, e perfctr.Event, iters int) float64 {
	return float64(r.Counters.Get(e)) / float64(iters)
}

// steadyMITE loads prog alone on a fresh core of cfg and returns its
// steady-state legacy-decode µops per traversal.
func steadyMITE(cfg cpu.Config, prog *asm.Program, warmup, iters int, a *cpu.Arena) (float64, error) {
	c := cpu.NewWith(cfg, a)
	c.LoadProgram(prog)
	res, err := steady(c, prog.Entry, 0, warmup, iters)
	if err != nil {
		return 0, err
	}
	return perIter(res[0], perfctr.MITEUops, iters), nil
}
