package cpu

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// TestTransientFetchFillsUopCache verifies the core security property:
// code fetched along a misspeculated path leaves micro-op cache state
// that survives the squash.
func TestTransientFetchFillsUopCache(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R2, 0)
	b.Clflush(isa.R2, 0x1000) // flush the guard value
	b.Load(isa.R3, isa.R2, 0x1000)
	b.Cmpi(isa.R3, 1)
	b.Jcc(isa.EQ, "transient") // mistrained: guard is 0 architecturally
	b.Halt()
	// The transient target: a distinctive region far away.
	b.Org(0x10000 + 16*1024 + 7*32) // set 7
	b.Label("transient")
	b.Nop(5)
	b.Nop(5)
	b.Halt()
	prog := b.MustBuild()

	c := New(Intel())
	c.LoadProgram(prog)
	transientAddr := prog.MustLabel("transient")

	// Train the branch taken (guard = 1).
	c.Mem().Write(0x1000, 8, 1)
	for i := 0; i < 4; i++ {
		if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
			t.Fatal("training timed out")
		}
	}
	c.FlushUopCache()
	if c.UopCache().Present(0, transientAddr) {
		t.Fatal("transient region cached before the attack run")
	}

	// Arm: guard = 0, so the taken prediction is wrong; the flush makes
	// the guard load slow, opening the window.
	c.Mem().Write(0x1000, 8, 0)
	res := c.Run(0, prog.Entry, 100000)
	if res.TimedOut {
		t.Fatal("attack run timed out")
	}
	if res.Counters.Get(perfctr.BranchMispredicts) == 0 {
		t.Fatal("no misprediction — no transient window opened")
	}
	if !c.UopCache().Present(0, transientAddr) {
		t.Error("squashed path left no micro-op cache footprint")
	}
}

// TestLFENCEBlocksExecutionNotFetch verifies the fence contract the
// variant-2 attack exploits.
func TestLFENCEBlocksExecutionNotFetch(t *testing.T) {
	// Architectural check: LFENCE orders execution (program still
	// computes correctly).
	b := asm.New(0x10000)
	b.Movi(isa.R1, 1)
	b.Lfence()
	b.Addi(isa.R1, 2)
	b.Halt()
	p := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(p)
	if res := c.Run(0, p.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R1); got != 3 {
		t.Errorf("R1 = %d", got)
	}

	// Microarchitectural check: with an LFENCE pending behind a slow
	// load, younger code is still fetched (fills the µop cache) even
	// though it cannot execute.
	b2 := asm.New(0x20000)
	b2.Label("entry")
	b2.Movi(isa.R2, 0)
	b2.Load(isa.R3, isa.R2, 0x1000) // slow (cold) load
	b2.Cmpi(isa.R3, 99)
	b2.Jcc(isa.EQ, "away") // predicted not-taken (cold predictor)
	b2.Lfence()
	b2.Jmp("younger")
	b2.Org(0x20000 + 8*1024 + 9*32) // set 9
	b2.Label("younger")
	b2.Nop(5)
	b2.Halt()
	b2.Org(0x20000 + 12*1024)
	b2.Label("away")
	b2.Halt()
	p2 := b2.MustBuild()
	c2 := New(Intel())
	c2.LoadProgram(p2)
	youngerAddr := p2.MustLabel("younger")
	if res := c2.Run(0, p2.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if !c2.UopCache().Present(0, youngerAddr) {
		t.Error("code past LFENCE was not fetched while the fence was pending")
	}
}

// TestCPUIDSerializesFetch verifies the contrasting contract: nothing
// past CPUID is fetched until it retires, so a mispredicted path never
// reaches the µop cache through it.
func TestCPUIDSerializesFetch(t *testing.T) {
	b := asm.New(0x20000)
	b.Label("entry")
	b.Movi(isa.R2, 0)
	b.Clflush(isa.R2, 0x1000)
	b.Load(isa.R3, isa.R2, 0x1000)
	b.Cmpi(isa.R3, 1)
	b.Jcc(isa.EQ, "guarded") // trained taken; actually not taken
	b.Halt()
	b.Org(0x20000 + 8*1024 + 11*32)
	b.Label("guarded")
	b.Cpuid()
	b.Jmp("secretcode")
	b.Org(0x20000 + 16*1024 + 13*32) // set 13
	b.Label("secretcode")
	b.Nop(5)
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	secretAddr := prog.MustLabel("secretcode")

	c.Mem().Write(0x1000, 8, 1)
	for i := 0; i < 4; i++ {
		if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
			t.Fatal("training timed out")
		}
	}
	c.FlushUopCache()
	c.Mem().Write(0x1000, 8, 0) // arm
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("attack run timed out")
	}
	if c.UopCache().Present(0, secretAddr) {
		t.Error("code past a transient CPUID was fetched — fetch serialization broken")
	}
}

// TestSquashRestoresArchitecturalState verifies transient writes never
// commit.
func TestSquashRestoresArchitecturalState(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R1, 10)
	b.Movi(isa.R2, 0)
	b.Clflush(isa.R2, 0x1000)
	b.Load(isa.R3, isa.R2, 0x1000)
	b.Cmpi(isa.R3, 1)
	b.Jcc(isa.EQ, "transient")
	b.Halt()
	b.Label("transient")
	b.Movi(isa.R1, 99) // transient register write
	b.Movi(isa.R4, 0x42)
	b.Store(isa.R2, 0x2000, isa.R4) // transient store
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)

	c.Mem().Write(0x1000, 8, 1)
	for i := 0; i < 4; i++ {
		c.Run(0, prog.Entry, 100000)
	}
	c.Mem().Write(0x1000, 8, 0)
	c.Mem().Write(0x2000, 8, 0)
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R1); got != 10 {
		t.Errorf("transient register write committed: R1 = %d", got)
	}
	if got := c.Mem().Read(0x2000, 8); got != 0 {
		t.Errorf("transient store committed: mem = %#x", got)
	}
}

// TestTransientLoadPerturbsDataCache verifies the classic Spectre
// property our flush+reload baseline depends on: a squashed load still
// fills the data cache.
func TestTransientLoadPerturbsDataCache(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R2, 0)
	b.Clflush(isa.R2, 0x1000)
	b.Load(isa.R3, isa.R2, 0x1000)
	b.Cmpi(isa.R3, 1)
	b.Jcc(isa.EQ, "transient")
	b.Halt()
	b.Label("transient")
	b.Load(isa.R4, isa.R2, 0x7000) // transient data access
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)

	c.Mem().Write(0x1000, 8, 1)
	for i := 0; i < 4; i++ {
		c.Run(0, prog.Entry, 100000)
	}
	c.Hierarchy().Flush(0x7000)
	c.Mem().Write(0x1000, 8, 0)
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if lvl := c.Hierarchy().DataCached(0x7000); lvl == 0 {
		t.Error("transient load left no data-cache footprint")
	}
}

// TestITLBFlushEmptiesUopCache verifies the inclusion property (§II-B).
func TestITLBFlushEmptiesUopCache(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Nop(5)
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	c.Run(0, prog.Entry, 100000)
	if len(c.UopCache().Snapshot()) == 0 {
		t.Fatal("nothing cached")
	}
	c.Hierarchy().FlushITLB()
	if len(c.UopCache().Snapshot()) != 0 {
		t.Error("µop cache lines survived the iTLB flush")
	}
}

// TestITLBFlushInstruction exercises the guest-visible ITLBFLUSH op.
func TestITLBFlushInstruction(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Nop(5)
	b.ItlbFlush()
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if len(c.UopCache().Snapshot()) != 0 {
		t.Error("lines survived guest ITLBFLUSH")
	}
}

// TestL1IEvictionInvalidatesUopCache verifies the L1I inclusion hook.
func TestL1IEvictionInvalidatesUopCache(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Nop(5)
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	c.Run(0, prog.Entry, 100000)
	if !c.UopCache().Present(0, 0x10000) {
		t.Fatal("entry region not cached")
	}
	c.Hierarchy().L1I().Invalidate(0x10000)
	if c.UopCache().Present(0, 0x10000) {
		t.Error("µop cache line survived its L1I line's eviction")
	}
}

// TestMitigationFlushKillsPersistence checks the flush-on-switch
// mitigation end to end.
func TestMitigationFlushKillsPersistence(t *testing.T) {
	cfg := Intel()
	cfg.Mitigation = MitigationFlushOnPrivilegeSwitch
	user := asm.New(0x10000)
	user.Label("entry")
	user.Nop(5)
	user.Syscall()
	user.Halt()
	kern := asm.New(cfg.KernelEntry)
	kern.Sysret()
	prog, err := asm.Merge(user.MustBuild(), kern.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	c.LoadProgram(prog)
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	// Everything cached before the final sysret was flushed at the
	// crossings; at most the post-sysret user code remains.
	for _, li := range c.UopCache().Snapshot() {
		if li.Region < 0x10020 {
			t.Errorf("pre-syscall region %#x survived the domain crossing", li.Region)
		}
	}
}

// TestSMTRunsBothThreads sanity-checks the SMT loop: thread 0 (the
// primary, whose HALT ends the run) counts down a loop long enough for
// the short sibling to halt first, so both threads must finish with
// their own register state and the sibling's cycle count must stop at
// its own HALT.
func TestSMTRunsBothThreads(t *testing.T) {
	a := asm.New(0x10000)
	a.Label("entry")
	a.Movi(isa.R1, 7)
	a.Movi(isa.R2, 200)
	a.Label("loop")
	a.Subi(isa.R2, 1)
	a.Cmpi(isa.R2, 0)
	a.Jcc(isa.NE, "loop")
	a.Halt()
	bld := asm.New(0x20000)
	bld.Label("entry")
	bld.Movi(isa.R1, 9)
	bld.Halt()
	pa, pb := a.MustBuild(), bld.MustBuild()
	merged, err := asm.Merge(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Intel())
	c.LoadProgram(merged)
	res := c.RunSMT(pa.Entry, pb.Entry, 100000)
	if res[0].TimedOut || res[1].TimedOut {
		t.Fatal("SMT run timed out")
	}
	if c.Reg(0, isa.R1) != 7 || c.Reg(1, isa.R1) != 9 {
		t.Errorf("thread state mixed: %d/%d", c.Reg(0, isa.R1), c.Reg(1, isa.R1))
	}
	if res[1].Cycles >= res[0].Cycles {
		t.Errorf("sibling cycles %d not below primary's %d", res[1].Cycles, res[0].Cycles)
	}
}

// TestAMDConfigRuns sanity-checks the Zen configuration end to end.
func TestAMDConfigRuns(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R1, 5)
	b.Addi(isa.R1, 6)
	b.Halt()
	prog := b.MustBuild()
	c := New(AMD())
	c.LoadProgram(prog)
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R1); got != 11 {
		t.Errorf("R1 = %d", got)
	}
}

// TestMispredictRecovery runs a data-dependent branch pattern the
// predictor cannot learn and verifies the architecture stays correct.
func TestMispredictRecovery(t *testing.T) {
	// Alternate taken/not-taken based on the loop counter's low bit.
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R1, 0)  // accumulator
	b.Movi(isa.R2, 16) // counter
	b.Label("loop")
	b.Mov(isa.R3, isa.R2)
	b.Andi(isa.R3, 1)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.EQ, "even")
	b.Addi(isa.R1, 1) // odd path
	b.Jmp("next")
	b.Label("even")
	b.Addi(isa.R1, 100)
	b.Label("next")
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	res := c.Run(0, prog.Entry, 1_000_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R1); got != 8*101 {
		t.Errorf("accumulator %d, want %d", got, 8*101)
	}
	if res.Counters.Get(perfctr.BranchMispredicts) == 0 {
		t.Error("alternating branch never mispredicted (suspicious)")
	}
}

// TestPauseNotCached verifies the paper's observation that PAUSE µops
// never enter the micro-op cache.
func TestPauseNotCached(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Pause()
	b.Nop(5)
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)
	c.Run(0, prog.Entry, 100000)
	c.Run(0, prog.Entry, 100000)
	if c.UopCache().Present(0, 0x10000) {
		t.Error("PAUSE-containing region was cached")
	}
	if got := c.UopCache().Stats().Uncacheable; got == 0 {
		t.Error("uncacheable fill not counted")
	}
}
