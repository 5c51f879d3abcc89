package cpu_test

import (
	"reflect"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/decode"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
	"deaduops/internal/uopcache"
	"deaduops/internal/victim"
)

// memoGroup names one memoized fetch group: entry address and
// instruction count.
type memoGroup struct {
	entry uint64
	n     int
}

// checkMemo holds every entry of c's decode memo to a fresh
// PlanRegion+BuildTrace of the same fetch group — the entry's
// instruction count of consecutive instructions from its entry
// address — and, for the groups in before, to the very plan and trace
// recorded there: a memoized decode is built once and never replaced.
// Together the two show the memoized plans and traces are still what
// they were when built. It returns the memo's current mapping.
func checkMemo(t testing.TB, c *cpu.CPU, before map[memoGroup]frontend.Decoded) map[memoGroup]frontend.Decoded {
	t.Helper()
	cfg := c.Config()
	m := c.DecodeMemo()
	prog := m.Program()
	now := map[memoGroup]frontend.Decoded{}
	m.Each(func(entry uint64, n int, d frontend.Decoded) {
		g := memoGroup{entry, n}
		now[g] = d
		if old, ok := before[g]; ok && old != d {
			t.Errorf("group %#x+%d: memoized decode replaced", entry, n)
		}
		insts := make([]*isa.Inst, 0, n)
		for pc := entry; len(insts) < n; {
			in := prog.At(pc)
			if in == nil {
				t.Errorf("group %#x+%d: no instruction at %#x", entry, n, pc)
				return
			}
			insts = append(insts, in)
			pc = in.End()
		}
		plan := decode.PlanRegion(cfg.Frontend.Decode, insts)
		region := entry &^ (cfg.UopCache.RegionSize() - 1)
		trace := uopcache.BuildTrace(cfg.UopCache, region, uint8(entry-region), plan.Macros)
		if !reflect.DeepEqual(d.Plan, plan) {
			t.Errorf("group %#x+%d: memoized plan differs from a fresh PlanRegion", entry, n)
		}
		if !reflect.DeepEqual(d.Trace, trace) {
			t.Errorf("group %#x+%d: memoized trace differs from a fresh BuildTrace", entry, n)
		}
	})
	return now
}

// runTwice runs prog from its entry on c, checks the memo, runs it
// again warm and checks that the second run kept the first run's
// decodes.
func runTwice(t testing.TB, c *cpu.CPU, prog *asm.Program) {
	t.Helper()
	c.LoadProgram(prog)
	c.Run(0, prog.Entry, 200_000)
	first := checkMemo(t, c, nil)
	c.Run(0, prog.Entry, 200_000)
	checkMemo(t, c, first)
}

// TestDecodeMemoMatchesFresh drives every registered profile's core
// through the covert channels and the simulated corpus (the victim
// fixtures and generated reference programs), then holds each core's
// decode memo to fresh decodes of the same fetch groups. A channel
// that does not calibrate under a profile (no µop cache, or a
// partition the receiver cannot see) still leaves its calibration
// runs' decodes to check.
func TestDecodeMemoMatchesFresh(t *testing.T) {
	payload := []byte{0xa5}
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			cfg := cpu.FromProfile(p)

			c := cpu.New(cfg)
			st, err := channel.NewSameAddressSpace(c, channel.DefaultConfig())
			if err == nil {
				_, _, err = st.Transmit(payload)
			}
			if err != nil {
				t.Logf("same-address-space channel: %v", err)
			}
			before := checkMemo(t, c, nil)
			if len(before) == 0 {
				t.Fatal("channel runs memoized no fetch group")
			}
			if err == nil {
				st.Transmit(payload)
				checkMemo(t, c, before)
			}

			c = cpu.New(cfg)
			smt, err := channel.NewCrossSMT(c, channel.DefaultConfig())
			if err == nil {
				_, _, err = smt.Transmit(payload)
			}
			if err != nil {
				t.Logf("cross-SMT channel: %v", err)
			}
			checkMemo(t, c, nil)

			c = cpu.New(cfg)
			for _, fx := range victim.Fixtures(victim.DefaultLayout()) {
				runTwice(t, c, fx.Prog)
			}
			for seed := uint64(1); seed <= 10; seed++ {
				prog, err := ref.Generate(seed, ref.DefaultGenConfig())
				if err != nil {
					t.Fatal(err)
				}
				runTwice(t, c, prog)
			}
		})
	}
}

// FuzzDecodeMemo runs a generated reference program on a core of a
// fuzzed profile and holds the decode memo to fresh decodes of every
// fetch group it saw.
func FuzzDecodeMemo(f *testing.F) {
	for seed := uint64(1); seed <= 5; seed++ {
		f.Add(seed, uint8(seed))
	}
	profiles := profile.All()
	f.Fuzz(func(t *testing.T, seed uint64, pi uint8) {
		prog, err := ref.Generate(seed, ref.DefaultGenConfig())
		if err != nil {
			t.Skip(err)
		}
		c := cpu.New(cpu.FromProfile(profiles[int(pi)%len(profiles)]))
		runTwice(t, c, prog)
	})
}

// TestLoadProgramDropsStaleTraces loads a loop at 0x1000, runs it until
// its traces are resident, then loads a different loop at the same
// addresses. The swap is a code write: the new loop must decode through
// MITE instead of streaming the old image's µops, and must end in the
// state internal/ref computes for it. The exit routine at 0x1400 is
// identical in both images and the routine at 0x1800 only the old image
// maps, so both keep their lines.
func TestLoadProgramDropsStaleTraces(t *testing.T) {
	loop := func(step int64, spare bool) *asm.Program {
		b := asm.New(0x1000)
		b.Label("entry")
		b.Movi(isa.R1, 0)
		b.Movi(isa.R2, 20)
		b.Label("loop")
		b.Addi(isa.R1, step)
		b.Subi(isa.R2, 1)
		b.Cmpi(isa.R2, 0)
		b.Jcc(isa.NE, "loop")
		b.Jmp("exit")
		b.Org(0x1400)
		b.Label("exit")
		b.Movi(isa.R3, 7)
		b.Halt()
		if spare {
			b.Org(0x1800)
			b.Label("spare")
			b.Movi(isa.R4, 9)
			b.Halt()
		}
		return b.MustBuild()
	}
	resident := func(c *cpu.CPU, lo uint64) int {
		n := 0
		for _, l := range c.UopCache().Snapshot() {
			if l.Region >= lo && l.Region < lo+0x40 {
				n++
			}
		}
		return n
	}
	old, next := loop(1, true), loop(3, false)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(old)
	for i := 0; i < 3; i++ {
		c.Run(0, old.Entry, 200_000)
		c.Run(0, old.MustLabel("spare"), 200_000)
	}
	for _, lo := range []uint64{0x1000, 0x1400, 0x1800} {
		if resident(c, lo) == 0 {
			t.Fatalf("no line of the old image's code at %#x resident after three runs", lo)
		}
	}

	c.LoadProgram(next)
	if n := resident(c, 0x1000); n != 0 {
		t.Errorf("%d lines of the replaced loop survive the image swap", n)
	}
	if resident(c, 0x1400) == 0 || resident(c, 0x1800) == 0 {
		t.Error("the unchanged exit routine or the old image's spare routine lost its lines")
	}
	// The reference starts from the registers the old image's runs left.
	m := ref.New(next, cpu.NewMemory(cpu.MemSize), isa.KernelEntry)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		m.Regs[r] = c.Reg(0, r)
	}
	res := c.Run(0, next.Entry, 200_000)
	if res.TimedOut {
		t.Fatal("run timed out")
	}
	if res.Counters.Get(perfctr.MITEUops) == 0 {
		t.Error("the new loop decoded nothing through MITE")
	}
	if err := m.Run(next.Entry, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if want, got := m.Regs[r], c.Reg(0, r); got != want {
			t.Errorf("%v = %d, reference %d", r, got, want)
		}
	}

	// A→B→A': A at 0x1000 runs warm, B at disjoint addresses is loaded
	// and run, then A', which differs from A at 0x1000. A' must be
	// compared with A, the image that last put code in those lines, not
	// with B, the image loaded just before it: otherwise A's lines
	// survive and A' streams A's µops. The checkpoint variant takes the
	// snapshot while B is loaded and restores it into a fresh core, so
	// the line→image table must travel with the micro-op cache it
	// describes.
	plain := func(step int64) *asm.Program {
		b := asm.New(0x1000)
		b.Movi(isa.R1, 0)
		b.Movi(isa.R2, 20)
		b.Label("loop")
		b.Addi(isa.R1, step)
		b.Subi(isa.R2, 1)
		b.Cmpi(isa.R2, 0)
		b.Jcc(isa.NE, "loop")
		b.Halt()
		return b.MustBuild()
	}
	other := func() *asm.Program {
		b := asm.New(0x5000)
		b.Movi(isa.R2, 5)
		b.Label("loop")
		b.Subi(isa.R2, 1)
		b.Cmpi(isa.R2, 0)
		b.Jcc(isa.NE, "loop")
		b.Halt()
		return b.MustBuild()
	}
	a, b, a2 := plain(1), other(), plain(3)
	// warmAB runs A until its traces are resident, then loads and runs
	// B, which leaves A's lines in place.
	warmAB := func() *cpu.CPU {
		c := cpu.New(cpu.Intel())
		c.LoadProgram(a)
		for i := 0; i < 3; i++ {
			c.Run(0, a.Entry, 200_000)
		}
		c.LoadProgram(b)
		c.Run(0, b.Entry, 200_000)
		return c
	}
	// runA2 loads A' and holds its run to internal/ref.
	runA2 := func(t *testing.T, c *cpu.CPU) {
		t.Helper()
		c.LoadProgram(a2)
		m := ref.New(a2, cpu.NewMemory(cpu.MemSize), isa.KernelEntry)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			m.Regs[r] = c.Reg(0, r)
		}
		if res := c.Run(0, a2.Entry, 200_000); res.TimedOut {
			t.Fatal("run timed out")
		}
		if err := m.Run(a2.Entry, 1_000_000); err != nil {
			t.Fatal(err)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if want, got := m.Regs[r], c.Reg(0, r); got != want {
				t.Errorf("%v = %d, reference %d", r, got, want)
			}
		}
	}
	t.Run("last-writer", func(t *testing.T) { runA2(t, warmAB()) })
	t.Run("last-writer-checkpoint", func(t *testing.T) {
		var ck cpu.Checkpoint
		warmAB().Checkpoint(&ck)
		c := cpu.New(cpu.Intel())
		c.Restore(&ck)
		runA2(t, c)
	})
}
