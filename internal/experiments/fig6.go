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
	Registry["fig6a"] = func(o Options) (Renderable, error) { return Fig6SMTPartition(o, Fig6Pause) }
	Registry["fig6b"] = func(o Options) (Renderable, error) { return Fig6SMTPartition(o, Fig6PointerChase) }
}

// Fig6Sibling selects the co-runner workload of Fig 6.
type Fig6Sibling int

// Sibling workloads.
const (
	// Fig6Pause has T2 spin on PAUSE (whose µops, per the paper, are
	// never cached in the micro-op cache).
	Fig6Pause Fig6Sibling = iota
	// Fig6PointerChase has T2 chase pointers through a cache-hostile
	// linked list.
	Fig6PointerChase
)

// String implements fmt.Stringer.
func (s Fig6Sibling) String() string {
	if s == Fig6Pause {
		return "pause"
	}
	return "pointer-chasing"
}

// fig6Warmup and fig6Iters are the warm-up and measured traversals of
// every Fig 6 and Fig 7 point.
const (
	fig6Warmup = 10
	fig6Iters  = 30
)

// Fig6SMTPartition reproduces Fig 6: thread T1 runs growing NOP loops
// while sibling thread T2 runs a slow workload. On the Intel
// configuration the micro-op cache is statically partitioned: T1's
// legacy-decode µops take off at half the single-thread capacity no
// matter what T2 executes.
func Fig6SMTPartition(o Options, sibling Fig6Sibling) (*Figure, error) {
	fig := &Figure{
		ID:    "fig6" + map[Fig6Sibling]string{Fig6Pause: "a", Fig6PointerChase: "b"}[sibling],
		Title: fmt.Sprintf("Micro-op cache usage of SMT siblings (T2 executes %s)", sibling),
		XAxis: "T1's Static Instructions",
		YAxis: "Micro-Ops from Legacy Decode Pipeline (per iteration)",
	}
	var regionList []int
	for regions := 16; regions <= 352; regions += 16 {
		regionList = append(regionList, regions)
	}
	type fig6Point struct{ smt, t2, st float64 }
	pts, err := sweep(o, len(regionList), func(a *cpu.Arena, i int) (fig6Point, error) {
		// T1's workload: a loop over 32-byte regions of four 8-byte NOPs.
		t1, err := codegen.SequentialLoop(benchBase, regionList[i], 4)
		if err != nil {
			return fig6Point{}, err
		}
		smt, t2, err := fig6SMTPoint(t1, sibling, a)
		if err != nil {
			return fig6Point{}, fmt.Errorf("fig6 SMT point (%d regions): %w", regionList[i], err)
		}
		st, err := steadyMITE(cpu.Intel(), t1, fig6Warmup, fig6Iters, a)
		if err != nil {
			return fig6Point{}, err
		}
		return fig6Point{smt: smt, t2: t2, st: st}, nil
	})
	if err != nil {
		return nil, err
	}
	var smtX, smtY, stX, stY, t2Y []float64
	for i, regions := range regionList {
		staticInsts := float64(regions * 4)
		smtX = append(smtX, staticInsts)
		smtY = append(smtY, pts[i].smt)
		stX = append(stX, staticInsts)
		stY = append(stY, pts[i].st)
		t2Y = append(t2Y, pts[i].t2)
	}
	fig.Series = []Series{
		{Label: "SMT -- T1 with T2", X: smtX, Y: smtY},
		{Label: "SMT -- T2 with T1", X: smtX, Y: t2Y},
		{Label: "Single-Thread T1", X: stX, Y: stY},
	}
	return fig, nil
}

// fig6T2Program builds the sibling workload at a disjoint code range.
func fig6T2Program(sibling Fig6Sibling) (*asm.Program, error) {
	b := asm.New(0x200000)
	b.Label("entry")
	b.Label("loop")
	switch sibling {
	case Fig6Pause:
		for i := 0; i < 8; i++ {
			b.Pause()
		}
	case Fig6PointerChase:
		// R1 walks the chain; 8 dependent loads per iteration.
		for i := 0; i < 8; i++ {
			b.Load(isa.R1, isa.R1, 0)
		}
	}
	codegen.LoopTail(b, "loop")
	return b.Build()
}

// chaseStride spaces pointer-chase nodes two cache lines apart across a
// footprint larger than L2, so T2 misses continuously.
const (
	chaseBase   = 0x100000
	chaseNodes  = 1 << 14
	chaseStride = 128
)

// setupChase writes the pointer-chase chain into guest memory.
func setupChase(c *cpu.CPU) {
	// A fixed-stride permutation with a large prime step scatters the
	// chain across sets.
	const step = 4793 // prime, co-prime with chaseNodes
	idx := uint64(0)
	for i := 0; i < chaseNodes; i++ {
		next := (idx + step) % chaseNodes
		c.Mem().Write(chaseBase+idx*chaseStride, 8, int64(chaseBase+next*chaseStride))
		idx = next
	}
}

// fig6SMTPoint runs t1 on thread 0 beside the sibling workload and
// returns both threads' steady-state legacy-decode µops per traversal.
func fig6SMTPoint(t1 *asm.Program, sibling Fig6Sibling, a *cpu.Arena) (t1MITE, t2MITE float64, err error) {
	t2, err := fig6T2Program(sibling)
	if err != nil {
		return 0, 0, err
	}
	merged, err := asm.Merge(t1, t2)
	if err != nil {
		return 0, 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(merged)
	if sibling == Fig6PointerChase {
		setupChase(c)
		c.SetReg(1, isa.R1, chaseBase)
	}
	res, err := steady(c, t1.Entry, t2.Entry, fig6Warmup, fig6Iters)
	if err != nil {
		return 0, 0, err
	}
	return perIter(res[0], perfctr.MITEUops, fig6Iters), perIter(res[1], perfctr.MITEUops, fig6Iters), nil
}
