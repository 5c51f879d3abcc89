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
	register("fig6a", func(o Options) (Renderable, error) { return Fig6SMTPartition(o, Fig6Pause) })
	register("fig6b", func(o Options) (Renderable, error) { return Fig6SMTPartition(o, Fig6PointerChase) })
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

// Fig6SMTPartition reproduces Fig 6: thread T1 runs growing NOP loops
// while sibling thread T2 runs a slow workload. On the Intel
// configuration the micro-op cache is statically partitioned: T1's
// legacy-decode µops take off at half the single-thread capacity no
// matter what T2 executes.
func Fig6SMTPartition(o Options, sibling Fig6Sibling) (*Figure, error) {
	o = o.withDefaults(30, 10, 1)
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
		regions := regionList[i]
		smt, t2, err := fig6SMTPoint(regions, sibling, o, a)
		if err != nil {
			return fig6Point{}, err
		}
		st, err := fig6STPoint(regions, o, a)
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

// fig6T1Program builds T1's workload: a loop over `regions` 32-byte
// regions of four 8-byte NOPs each.
func fig6T1Program(regions int) (*asm.Program, error) {
	return codegen.SequentialLoop(benchBase, regions, 4)
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
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
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

func fig6SMTPoint(regions int, sibling Fig6Sibling, o Options, a *cpu.Arena) (t1MITE, t2MITE float64, err error) {
	t1, err := fig6T1Program(regions)
	if err != nil {
		return 0, 0, err
	}
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
	run := func(iters int64) ([2]cpu.RunResult, error) {
		c.SetReg(0, isa.R14, iters)
		c.SetReg(1, isa.R14, 1<<40) // T2 runs for as long as T1 needs
		res := c.RunSMT(t1.Entry, t2.Entry, maxRunCycle)
		if res[0].TimedOut {
			return res, fmt.Errorf("fig6 SMT point timed out (%d regions)", regions)
		}
		return res, nil
	}
	if _, err := run(int64(o.Warmup)); err != nil {
		return 0, 0, err
	}
	res, err := run(int64(o.Iterations))
	if err != nil {
		return 0, 0, err
	}
	t1MITE = float64(res[0].Counters.Get(perfctr.MITEUops)) / float64(o.Iterations)
	t2MITE = float64(res[1].Counters.Get(perfctr.MITEUops)) / float64(o.Iterations)
	return t1MITE, t2MITE, nil
}

func fig6STPoint(regions int, o Options, a *cpu.Arena) (float64, error) {
	t1, err := fig6T1Program(regions)
	if err != nil {
		return 0, err
	}
	c := cpu.NewWith(cpu.Intel(), a)
	c.LoadProgram(t1)
	c.SetReg(0, isa.R14, int64(o.Warmup))
	if r := c.Run(0, t1.Entry, maxRunCycle); r.TimedOut {
		return 0, fmt.Errorf("fig6 ST warmup timed out")
	}
	c.SetReg(0, isa.R14, int64(o.Iterations))
	res := c.Run(0, t1.Entry, maxRunCycle)
	if res.TimedOut {
		return 0, fmt.Errorf("fig6 ST run timed out")
	}
	return float64(res.Counters.Get(perfctr.MITEUops)) / float64(o.Iterations), nil
}
