package cpu

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// TestSteadyStateRunAllocs pins the steady-state cycle loop to zero
// heap allocations. After warmup the predictors are trained, the
// reusable fetch group has grown to capacity, a DSB hit streams the
// cached trace's own µops, and the IDQ and the ROB's entries live in
// fixed rings, so a whole Run (including the
// final mispredicted loop exit and its squash) must not touch the
// heap. Two loops cover both delivery paths: a hot loop whose trace
// the µop cache holds, and a tiger/zebra prime→probe loop whose 16
// same-set regions contend for 8 ways, so every round refills through
// MITE and decodes from the core's decode memo. A third case runs the
// hot loop on both AMD threads at once, through RunSMT's shared
// decoders and both threads' rings; every SMT run starts with the µop
// cache emptied by the mode change, so it refills through MITE. Sweep
// throughput depends on this invariant; a regression here silently
// multiplies GC pressure across every parallel worker.
func TestSteadyStateRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		prog     *asm.Program
		smt      bool
		wantMITE bool
	}{
		{"dsb-loop", Intel(), hotLoop(), false, false},
		{"prime-probe", Intel(), primeProbeLoop(t), false, true},
		{"amd-smt", AMD(), hotLoop(), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			c.LoadProgram(tc.prog)
			run := func() RunResult {
				c.SetReg(0, codegen.LoopReg, 4)
				if !tc.smt {
					return c.Run(0, tc.prog.Entry, testMaxCycles)
				}
				return c.RunSMT(tc.prog.Entry, tc.prog.Entry, testMaxCycles)[0]
			}
			for i := 0; i < 5; i++ {
				if res := run(); res.TimedOut {
					t.Fatal("warmup run timed out")
				}
			}
			allocs := testing.AllocsPerRun(50, func() { run() })
			if allocs != 0 {
				t.Errorf("steady-state Run allocates %.1f objects per run, want 0", allocs)
			}
			if got := run().Counters.Get(perfctr.DSB2MITESwitches) > 0; got != tc.wantMITE {
				t.Errorf("run refills through MITE: %v, want %v", got, tc.wantMITE)
			}
		})
	}
}

// hotLoop is a 64-iteration loop small enough to stream from the µop
// cache after its first traversal.
func hotLoop() *asm.Program {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0)
	b.Movi(isa.R2, 64)
	b.Label("loop")
	b.Add(isa.R1, isa.R2)
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	return b.MustBuild()
}

// primeProbeLoop chains an 8-way tiger and an 8-way zebra through set 0
// and loops over both codegen.LoopReg times: each traversal of either
// chain finds the other's lines in its ways.
func primeProbeLoop(t *testing.T) *asm.Program {
	t.Helper()
	chain := func(base uint64, label string) *codegen.ChainSpec {
		return codegen.ProbeChain(base, []int{0}, 8, label)
	}
	tiger, zebra := chain(0x10000, "tiger"), chain(0x10000+8*codegen.WayStride, "zebra")
	b := asm.New(0x8000 + codegen.RegionSize) // set 1, clear of the chains' set
	b.Label("entry")
	b.Jmp(tiger.EntryLabel())
	b.Label("tail")
	codegen.LoopTail(b, tiger.EntryLabel())
	if err := tiger.Emit(b, zebra.EntryLabel()); err != nil {
		t.Fatal(err)
	}
	if err := zebra.Emit(b, "tail"); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}
