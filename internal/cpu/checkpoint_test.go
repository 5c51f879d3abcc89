package cpu

import (
	"bytes"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// checkpointProg builds a program with enough microarchitectural
// texture to catch a missed checkpoint field: loads and stores (guest
// memory + data caches), a counted branch (predictor counters and
// history), RDTSC (the absolute cycle clock), and a working set that
// trains µop-cache hotness across runs.
func checkpointProg() *asm.Program {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0x2000) // data base
	b.Movi(isa.R2, 16)     // counter
	b.Rdtsc(isa.R5)        // absolute-clock sensitivity
	b.Label("loop")
	b.Load(isa.R3, isa.R1, 0)
	b.Add(isa.R3, isa.R2)
	b.Store(isa.R1, 0, isa.R3)
	b.Addi(isa.R1, 8)
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Rdtsc(isa.R6)
	b.Halt()
	return b.MustBuild()
}

// runsEqual compares two RunResults field by field, including every
// performance counter.
func runsEqual(a, b RunResult) bool {
	return a.Cycles == b.Cycles && a.Retired == b.Retired &&
		a.TimedOut == b.TimedOut && a.Counters == b.Counters
}

// TestCheckpointRoundTrip proves checkpoint → restore → run is
// bit-identical to the straight-line run it forked from: cycle counts,
// every performance counter, registers (including RDTSC-captured
// absolute cycles), the guest memory image, and the µop-cache and
// hierarchy statistics.
func TestCheckpointRoundTrip(t *testing.T) {
	p := checkpointProg()
	const extraRuns = 3

	// Reference: train, checkpoint, then continue straight-line.
	ref := New(Intel())
	ref.LoadProgram(p)
	if res := ref.Run(0, p.Entry, testMaxCycles); res.TimedOut {
		t.Fatal("training run timed out")
	}
	var ck Checkpoint
	ref.Checkpoint(&ck)
	var want [extraRuns]RunResult
	for i := range want {
		want[i] = ref.Run(0, p.Entry, testMaxCycles)
	}
	wantMem := ref.Mem().ReadBytes(0x2000, 16*8)
	wantR5, wantR6 := ref.Reg(0, isa.R5), ref.Reg(0, isa.R6)
	wantCycle := ref.Cycle()
	wantUC := ref.UopCache().Stats()
	wantHier := ref.Hierarchy().Stats()

	check := func(name string, c *CPU) {
		t.Helper()
		for i := range want {
			got := c.Run(0, p.Entry, testMaxCycles)
			if !runsEqual(got, want[i]) {
				t.Fatalf("%s: run %d diverged:\ngot  %+v\nwant %+v", name, i, got, want[i])
			}
		}
		if got := c.Mem().ReadBytes(0x2000, 16*8); !bytes.Equal(got, wantMem) {
			t.Errorf("%s: memory image diverged", name)
		}
		if got := c.Reg(0, isa.R5); got != wantR5 {
			t.Errorf("%s: R5 (rdtsc) = %d, want %d", name, got, wantR5)
		}
		if got := c.Reg(0, isa.R6); got != wantR6 {
			t.Errorf("%s: R6 (rdtsc) = %d, want %d", name, got, wantR6)
		}
		if got := c.Cycle(); got != wantCycle {
			t.Errorf("%s: cycle clock = %d, want %d", name, got, wantCycle)
		}
		if got := c.UopCache().Stats(); got != wantUC {
			t.Errorf("%s: µop-cache stats diverged:\ngot  %+v\nwant %+v", name, got, wantUC)
		}
		if got := c.Hierarchy().Stats(); got != wantHier {
			t.Errorf("%s: hierarchy stats diverged", name)
		}
	}

	// Fork into a fresh core.
	fresh := New(Intel())
	fresh.Restore(&ck)
	check("fresh core", fresh)

	// Rewind the dirty reference core itself.
	ref.Restore(&ck)
	check("rewound core", ref)

	// Reuse of a checkpoint buffer must not leak the old snapshot:
	// checkpoint the now-diverged fresh core into the same buffer and
	// confirm the new snapshot restores the new state.
	fresh.Run(0, p.Entry, testMaxCycles)
	fresh.Checkpoint(&ck)
	wantNext := fresh.Run(0, p.Entry, testMaxCycles)
	fresh.Restore(&ck)
	if got := fresh.Run(0, p.Entry, testMaxCycles); !runsEqual(got, wantNext) {
		t.Fatalf("reused checkpoint buffer: run diverged:\ngot  %+v\nwant %+v", got, wantNext)
	}
}

// TestCheckpointForkIsolation proves two restores from one checkpoint
// share nothing: one fork's memory writes, µop-cache flushes, and runs
// must not perturb the other fork or the checkpoint itself.
func TestCheckpointForkIsolation(t *testing.T) {
	p := checkpointProg()
	base := New(Intel())
	base.LoadProgram(p)
	base.Run(0, p.Entry, testMaxCycles)
	var ck Checkpoint
	base.Checkpoint(&ck)

	// The expected continuation, measured on the original core.
	want := base.Run(0, p.Entry, testMaxCycles)
	wantMem := base.Mem().ReadBytes(0x2000, 16*8)

	forkA := New(Intel())
	forkA.Restore(&ck)
	forkB := New(Intel())
	forkB.Restore(&ck)

	// Vandalize fork A: scribble over its data, flush its µop cache,
	// and run it twice.
	forkA.Mem().Write(0x2000, 8, 0x5a5a5a5a)
	forkA.FlushUopCache()
	forkA.Run(0, p.Entry, testMaxCycles)
	forkA.Run(0, p.Entry, testMaxCycles)

	// Fork B must still replay the pristine continuation.
	if got := forkB.Run(0, p.Entry, testMaxCycles); !runsEqual(got, want) {
		t.Fatalf("fork B perturbed by fork A:\ngot  %+v\nwant %+v", got, want)
	}
	if got := forkB.Mem().ReadBytes(0x2000, 16*8); !bytes.Equal(got, wantMem) {
		t.Error("fork B memory image perturbed by fork A")
	}

	// And the checkpoint itself must still be intact: a third restore
	// replays the same continuation again.
	forkC := New(Intel())
	forkC.Restore(&ck)
	if got := forkC.Run(0, p.Entry, testMaxCycles); !runsEqual(got, want) {
		t.Fatalf("checkpoint corrupted by forks:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCheckpointRestoreAllocs pins Restore's O(touched-state) claim:
// rehydrating a warm core from a warm checkpoint buffer copies into
// existing structures and must not allocate.
func TestCheckpointRestoreAllocs(t *testing.T) {
	p := checkpointProg()
	c := New(Intel())
	c.LoadProgram(p)
	c.Run(0, p.Entry, testMaxCycles)
	var ck Checkpoint
	c.Checkpoint(&ck)
	// Warm both directions once so every buffer has its final size.
	c.Restore(&ck)
	c.Checkpoint(&ck)

	if allocs := testing.AllocsPerRun(20, func() { c.Restore(&ck) }); allocs != 0 {
		t.Errorf("warm Restore allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { c.Checkpoint(&ck) }); allocs != 0 {
		t.Errorf("warm Checkpoint allocates %.1f objects, want 0", allocs)
	}
}

// TestRestoreRejectsForeignSnapshot pins the geometry checks: a guest
// image snapshot restores only into an image of the same size, even
// one with the same page count.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Restore did not panic", name)
			}
		}()
		f()
	}
	var ms MemoryState
	NewMemory(2 << memPageShift).Save(&ms)
	mustPanic("memory, same page count", func() { NewMemory(2<<memPageShift - 1).Restore(&ms) })
	mustPanic("memory, fewer pages", func() { NewMemory(1 << memPageShift).Restore(&ms) })
}

// TestRunSkipEquivalence is the package-local skip check (the corpus-
// and profile-wide gate lives in staticlint/difftest): with the fast
// path disabled the same program must produce identical cycles,
// retirement, and counters — except SkippedCycles, which audits the
// fast path and must be nonzero on a memory-stalling program when the
// path is on.
func TestRunSkipEquivalence(t *testing.T) {
	p := checkpointProg()

	run := func(disable bool) (RunResult, RunResult) {
		cfg := Intel()
		cfg.DisableCycleSkip = disable
		c := New(cfg)
		c.LoadProgram(p)
		return c.Run(0, p.Entry, testMaxCycles), c.Run(0, p.Entry, testMaxCycles)
	}
	coldOn, warmOn := run(false)
	coldOff, warmOff := run(true)

	diff := func(name string, on, off RunResult) {
		t.Helper()
		if on.Cycles != off.Cycles || on.Retired != off.Retired || on.TimedOut != off.TimedOut {
			t.Fatalf("%s: skip on/off diverged: on %+v off %+v", name, on, off)
		}
		for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
			if e == perfctr.SkippedCycles {
				continue
			}
			if on.Counters.Get(e) != off.Counters.Get(e) {
				t.Errorf("%s: counter %v: on %d off %d", name, e,
					on.Counters.Get(e), off.Counters.Get(e))
			}
		}
	}
	diff("cold", coldOn, coldOff)
	diff("warm", warmOn, warmOff)

	if coldOn.Counters.Get(perfctr.SkippedCycles) == 0 {
		t.Error("fast path skipped nothing on a cold memory-stalling run")
	}
	if got := coldOff.Counters.Get(perfctr.SkippedCycles); got != 0 {
		t.Errorf("disabled fast path reported %d skipped cycles", got)
	}
}

// TestRestoreResetsDecodeMemoOnProgramChange pins when Restore empties
// the core's decode memo: restoring a checkpoint taken under another
// code image must drop the current image's decodes, and restoring one
// taken under the loaded image must keep them, so repeated restores of
// one program (the difftest pattern) never decode a fetch group twice.
func TestRestoreResetsDecodeMemoOnProgramChange(t *testing.T) {
	// The images sit at disjoint addresses, so loading b keeps a's
	// µop-cache lines and only the decode memo changes.
	a, b := checkpointProg(), primeProbeLoop(t)
	c := New(Intel())
	c.LoadProgram(a)
	c.Run(0, a.Entry, testMaxCycles)
	var ckA Checkpoint
	c.Checkpoint(&ckA)

	c.LoadProgram(b)
	if m := c.DecodeMemo(); m.Len() != 0 || m.Program() != b {
		t.Fatalf("after LoadProgram of another image: memo holds %d groups of %p, want 0 of %p", m.Len(), m.Program(), b)
	}
	c.SetReg(0, codegen.LoopReg, 2)
	c.Run(0, b.Entry, testMaxCycles)
	var ckB Checkpoint
	c.Checkpoint(&ckB)
	n := c.DecodeMemo().Len()
	if n == 0 {
		t.Fatal("run memoized no fetch group")
	}

	c.Restore(&ckB)
	if got := c.DecodeMemo().Len(); got != n {
		t.Errorf("Restore under the same program: memo holds %d groups, want the %d it had", got, n)
	}
	c.Restore(&ckA)
	if m := c.DecodeMemo(); m.Len() != 0 || m.Program() != a {
		t.Errorf("Restore under another program: memo holds %d groups of %p, want 0 of %p", m.Len(), m.Program(), a)
	}
}
