package cpu

import (
	"bytes"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

const testMaxCycles = 2_000_000

func runProg(t *testing.T, p *asm.Program) (*CPU, RunResult) {
	t.Helper()
	c := New(Intel())
	c.LoadProgram(p)
	res := c.Run(0, p.Entry, testMaxCycles)
	if res.TimedOut {
		t.Fatalf("program timed out after %d cycles", res.Cycles)
	}
	return c, res
}

func TestArithmetic(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 5)
	b.Movi(isa.R2, 7)
	b.Add(isa.R1, isa.R2)
	b.Movi64(isa.R3, 1<<40)
	b.Add(isa.R3, isa.R1)
	b.Subi(isa.R3, 2)
	b.Xor(isa.R4, isa.R4)
	b.Ori(isa.R4, 0xff)
	b.Andi(isa.R4, 0x0f)
	b.Shli(isa.R4, 4)
	b.Halt()
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R1); got != 12 {
		t.Errorf("R1 = %d, want 12", got)
	}
	if got := c.Reg(0, isa.R3); got != (1<<40)+10 {
		t.Errorf("R3 = %d, want %d", got, (1<<40)+10)
	}
	if got := c.Reg(0, isa.R4); got != 0xf0 {
		t.Errorf("R4 = %#x, want 0xf0", got)
	}
}

func TestCountedLoop(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0)  // sum
	b.Movi(isa.R2, 10) // counter
	b.Label("loop")
	b.Add(isa.R1, isa.R2)
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	c, res := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if res.Retired == 0 {
		t.Error("no instructions retired")
	}
}

func TestConditionCodes(t *testing.T) {
	cases := []struct {
		name string
		a, b int64
		cond isa.Cond
		want bool // branch taken?
	}{
		{"eq-taken", 4, 4, isa.EQ, true},
		{"eq-not", 4, 5, isa.EQ, false},
		{"ne-taken", 4, 5, isa.NE, true},
		{"lt-taken", -3, 2, isa.LT, true},
		{"lt-not", 3, 2, isa.LT, false},
		{"ge-taken", 3, 2, isa.GE, true},
		{"gt-taken", 3, 2, isa.GT, true},
		{"gt-not", 2, 2, isa.GT, false},
		{"le-taken", 2, 2, isa.LE, true},
		{"b-taken", 1, 2, isa.B, true},
		{"b-not", 2, 1, isa.B, false},
		{"ae-taken", 2, 1, isa.AE, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.New(0x1000)
			b.Movi(isa.R1, tc.a)
			b.Movi(isa.R2, tc.b)
			b.Movi(isa.R3, 0)
			b.Cmp(isa.R1, isa.R2)
			b.Jcc(tc.cond, "taken")
			b.Movi(isa.R3, 1)
			b.Jmp("done")
			b.Label("taken")
			b.Movi(isa.R3, 2)
			b.Label("done")
			b.Halt()
			c, _ := runProg(t, b.MustBuild())
			want := int64(1)
			if tc.want {
				want = 2
			}
			if got := c.Reg(0, isa.R3); got != want {
				t.Errorf("R3 = %d, want %d", got, want)
			}
		})
	}
}

func TestMemoryLoadStore(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0x2000) // base
	b.Movi(isa.R2, 0x1234567890)
	b.Store(isa.R1, 8, isa.R2)
	b.Load(isa.R3, isa.R1, 8)
	b.Movi(isa.R4, 0xAB)
	b.Storeb(isa.R1, 0, isa.R4)
	b.Loadb(isa.R5, isa.R1, 0)
	b.Halt()
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R3); got != 0x1234567890 {
		t.Errorf("R3 = %#x, want 0x1234567890", got)
	}
	if got := c.Reg(0, isa.R5); got != 0xAB {
		t.Errorf("R5 = %#x, want 0xAB", got)
	}
	if got := c.Mem().Read(0x2008, 8); got != 0x1234567890 {
		t.Errorf("mem[0x2008] = %#x", got)
	}
}

func TestCallRet(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 1)
	b.Call("fn")
	b.Addi(isa.R1, 100) // runs after return
	b.Halt()
	b.Align(64)
	b.Label("fn")
	b.Addi(isa.R1, 10)
	b.Ret()
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R1); got != 111 {
		t.Errorf("R1 = %d, want 111", got)
	}
}

func TestNestedCalls(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0)
	b.Call("outer")
	b.Addi(isa.R1, 1000)
	b.Halt()
	b.Align(64)
	b.Label("outer")
	b.Addi(isa.R1, 1)
	b.Call("inner")
	b.Addi(isa.R1, 10)
	b.Ret()
	b.Align(64)
	b.Label("inner")
	b.Addi(isa.R1, 100)
	b.Ret()
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R1); got != 1111 {
		t.Errorf("R1 = %d, want 1111", got)
	}
}

func TestIndirectJump(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0) // will hold target
	b.Movi(isa.R2, 0)
	// Resolve target of label "dest" after build: use two-pass trick —
	// place dest at a fixed aligned address.
	b.Jmp("start")
	b.Org(0x1100)
	b.Label("dest")
	b.Movi(isa.R2, 42)
	b.Halt()
	b.Org(0x1200)
	b.Label("start")
	b.Movi(isa.R1, 0x1100)
	b.Jmpi(isa.R1)
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R2); got != 42 {
		t.Errorf("R2 = %d, want 42", got)
	}
}

func TestIndirectCall(t *testing.T) {
	b := asm.New(0x1000)
	b.Jmp("start")
	b.Org(0x1100)
	b.Label("fn")
	b.Movi(isa.R2, 7)
	b.Ret()
	b.Org(0x1200)
	b.Label("start")
	b.Movi(isa.R1, 0x1100)
	b.Calli(isa.R1)
	b.Addi(isa.R2, 1)
	b.Halt()
	c, _ := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R2); got != 8 {
		t.Errorf("R2 = %d, want 8", got)
	}
}

func TestSyscallSysret(t *testing.T) {
	cfg := Intel()
	user := asm.New(0x1000)
	user.Movi(isa.R1, 1)
	user.Syscall()
	user.Addi(isa.R1, 100)
	user.Halt()
	kern := asm.New(isa.KernelEntry)
	kern.Label("kentry")
	kern.Addi(isa.R1, 10)
	kern.Sysret()
	prog, err := asm.Merge(user.MustBuild(), kern.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	c.LoadProgram(prog)
	res := c.Run(0, prog.Entry, testMaxCycles)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if got := c.Reg(0, isa.R1); got != 111 {
		t.Errorf("R1 = %d, want 111", got)
	}
	if c.Backend(0).KernelMode() {
		t.Error("still in kernel mode after sysret")
	}
}

// TestGuestLayout pins the fixed guest layout on new and recycled
// cores: thread 0's stack pointer starts at StackTop, thread 1's
// StackSpacing lower, and SYSCALL enters the kernel at isa.KernelEntry.
func TestGuestLayout(t *testing.T) {
	user := asm.New(0x1000)
	user.Syscall()
	user.Halt()
	kern := asm.New(isa.KernelEntry)
	kern.Movi(isa.R1, 42)
	kern.Halt()
	prog, err := asm.Merge(user.MustBuild(), kern.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	for _, tc := range []struct {
		name string
		mk   func() *CPU
	}{
		{"new", func() *CPU { return New(Intel()) }},
		{"arena, first core", func() *CPU { return NewWith(AMD(), &arena) }},
		{"arena, recycled core", func() *CPU { return NewWith(Intel(), &arena) }},
	} {
		c := tc.mk()
		if got := c.Reg(0, isa.R15); got != StackTop {
			t.Errorf("%s: thread 0 R15 = %#x, want StackTop %#x", tc.name, got, StackTop)
		}
		if got, want := c.Reg(1, isa.R15), int64(StackTop-StackSpacing); got != want {
			t.Errorf("%s: thread 1 R15 = %#x, want StackTop-StackSpacing %#x", tc.name, got, want)
		}
		c.LoadProgram(prog)
		if res := c.Run(0, prog.Entry, testMaxCycles); res.TimedOut {
			t.Fatalf("%s: timed out", tc.name)
		}
		if got := c.Reg(0, isa.R1); got != 42 || !c.Backend(0).KernelMode() {
			t.Errorf("%s: R1 = %d, kernel mode %v after SYSCALL; want the kernel code at %#x to run",
				tc.name, got, c.Backend(0).KernelMode(), isa.KernelEntry)
		}
	}
}

// TestDeliveryPathMatchesCounters checks each retired µop's Path tag
// against the delivery counters: on a straight-line program (no
// squash, so every delivered µop retires) the retired µops per path
// equal the MITEUops, MSROMUops, DSBUops and LSDUops deltas, cold and
// warm; on a loop the LSD replays, no path retires more than it
// delivered.
func TestDeliveryPathMatchesCounters(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.NopRegion(32, 4)
	b.Movi(isa.R1, 1)
	b.Msrom(6)
	b.Addi(isa.R1, 2)
	b.NopRegion(64, 6)
	b.Halt()
	prog := b.MustBuild()
	c := New(Intel())
	c.LoadProgram(prog)

	var retired [isa.PathLSD + 1]uint64
	squashes := 0
	be := c.Backend(0)
	be.OnRetire = func(_ uint64, u isa.Uop) { retired[u.Path]++ }
	be.OnSquash = func(uint64, uint64) { squashes++ }
	counters := [...]perfctr.Event{
		isa.PathMITE:  perfctr.MITEUops,
		isa.PathMSROM: perfctr.MSROMUops,
		isa.PathDSB:   perfctr.DSBUops,
		isa.PathLSD:   perfctr.LSDUops,
	}
	for _, run := range []string{"cold", "warm"} {
		retired = [len(retired)]uint64{}
		res := c.Run(0, prog.Entry, testMaxCycles)
		if res.TimedOut || squashes != 0 {
			t.Fatalf("%s: timed out %v, %d squashes; the program must run straight through", run, res.TimedOut, squashes)
		}
		for p, ev := range counters {
			if got, want := retired[p], res.Counters.Get(ev); got != want {
				t.Errorf("%s: %d µops retired with path %v, counter %v = %d", run, got, isa.Path(p), ev, want)
			}
		}
		switch {
		case run == "cold" && (retired[isa.PathMITE] == 0 || retired[isa.PathMSROM] == 0):
			t.Errorf("cold run retired %v µops per path; want legacy and microcode delivery", retired)
		case run == "warm" && retired[isa.PathDSB] == 0:
			t.Errorf("warm run retired %v µops per path; want µop cache delivery", retired)
		}
	}

	// A loop the LSD locks squashes at its exit, so a path may deliver
	// more µops than retire; still, every retired µop was delivered by
	// the path it names, and the replayed ones name the LSD.
	lb := asm.New(0x20000)
	lb.Label("loop")
	lb.Nop(4)
	lb.Addi(isa.R1, 1)
	lb.Subi(isa.R14, 1)
	lb.Cmpi(isa.R14, 0)
	lb.Jcc(isa.NE, "loop")
	lb.Halt()
	loop := lb.MustBuild()
	cfg := Intel()
	cfg.Frontend.LSDCapacity = 64
	c = New(cfg)
	c.LoadProgram(loop)
	retired = [len(retired)]uint64{}
	c.Backend(0).OnRetire = func(_ uint64, u isa.Uop) { retired[u.Path]++ }
	c.SetReg(0, isa.R14, 50)
	res := c.Run(0, loop.Entry, testMaxCycles)
	if res.TimedOut {
		t.Fatal("LSD loop timed out")
	}
	for p, ev := range counters {
		if got, max := retired[p], res.Counters.Get(ev); got > max {
			t.Errorf("LSD loop: %d µops retired with path %v, but %v = %d delivered", got, isa.Path(p), ev, max)
		}
	}
	if retired[isa.PathLSD] == 0 {
		t.Errorf("LSD loop retired %v µops per path; want LSD delivery", retired)
	}
}

func TestRdtscMonotonic(t *testing.T) {
	b := asm.New(0x1000)
	b.Rdtsc(isa.R1)
	for i := 0; i < 50; i++ {
		b.Nop(1)
	}
	b.Rdtsc(isa.R2)
	b.Halt()
	c, _ := runProg(t, b.MustBuild())
	t1, t2 := c.Reg(0, isa.R1), c.Reg(0, isa.R2)
	if t2 <= t1 {
		t.Errorf("rdtsc not monotonic: %d then %d", t1, t2)
	}
}

func TestUopCacheWarmupSpeedsLoop(t *testing.T) {
	// A hot loop should run faster on the second pass, when its
	// micro-ops stream from the micro-op cache.
	b := asm.New(0x1000)
	b.Movi(isa.R2, 200)
	b.Label("loop")
	b.Align(32)
	for i := 0; i < 8; i++ {
		b.NopRegion(32, 3)
	}
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	p := b.MustBuild()

	c := New(Intel())
	c.LoadProgram(p)
	cold := c.Run(0, p.Entry, testMaxCycles)
	warm := c.Run(0, p.Entry, testMaxCycles)
	if cold.TimedOut || warm.TimedOut {
		t.Fatal("timed out")
	}
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warm run (%d cycles) not faster than cold (%d)", warm.Cycles, cold.Cycles)
	}
	if warm.Counters.Get(perfctr.DSBUops) == 0 {
		t.Error("warm run delivered no µops from the micro-op cache")
	}
}

func TestPerfCountersAccumulate(t *testing.T) {
	b := asm.New(0x1000)
	for i := 0; i < 20; i++ {
		b.Nop(2)
	}
	b.Halt()
	_, res := runProg(t, b.MustBuild())
	if res.Counters.Get(perfctr.Cycles) == 0 {
		t.Error("cycles counter is zero")
	}
	if got := res.Counters.Get(perfctr.Instructions); got != 21 {
		t.Errorf("instructions = %d, want 21", got)
	}
}

func TestGuestMemoryBounds(t *testing.T) {
	m := NewMemory(64)
	m.Write(1<<40, 8, 0x55) // out of range: dropped
	if got := m.Read(1<<40, 8); got != 0 {
		t.Errorf("OOB read = %d, want 0", got)
	}
	m.Write(60, 8, -1) // straddles the end: partial write allowed
	if got := m.Read(60, 4); got == 0 {
		t.Error("partial in-range write lost")
	}
}

// TestGuestMemoryBytesBounds pins WriteBytes and ReadBytes to the
// image bounds Write and Read honour: bytes past the end are dropped
// on write and read zero, and only in-image pages are marked written.
func TestGuestMemoryBytesBounds(t *testing.T) {
	const size = 2 << memPageShift
	for _, tc := range []struct {
		name  string
		addr  uint64
		want  []byte // ReadBytes(addr, 4) after WriteBytes(addr, {1,2,3,4})
		pages int
	}{
		{"inside", 8, []byte{1, 2, 3, 4}, 1},
		{"across pages", 1<<memPageShift - 2, []byte{1, 2, 3, 4}, 2},
		{"straddling the end", size - 2, []byte{1, 2, 0, 0}, 1},
		{"at the end", size, []byte{0, 0, 0, 0}, 0},
		{"past the end", 1 << 40, []byte{0, 0, 0, 0}, 0},
	} {
		m := NewMemory(size)
		m.WriteBytes(tc.addr, []byte{1, 2, 3, 4})
		if got := m.ReadBytes(tc.addr, 4); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: read back %v, want %v", tc.name, got, tc.want)
		}
		var s MemoryState
		m.Save(&s)
		if s.pages.Len() != tc.pages {
			t.Errorf("%s: %d pages marked written, want %d", tc.name, s.pages.Len(), tc.pages)
		}
	}
}

func TestMacroFusionRetiresBothMacroOps(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 3)
	b.Cmpi(isa.R1, 3) // fuses with the following JCC
	b.Jcc(isa.EQ, "out")
	b.Movi(isa.R1, 99)
	b.Label("out")
	b.Halt()
	c, res := runProg(t, b.MustBuild())
	if got := c.Reg(0, isa.R1); got != 3 {
		t.Errorf("R1 = %d, want 3", got)
	}
	// movi + cmp + jcc + halt = 4 macro-ops.
	if got := res.Counters.Get(perfctr.Instructions); got != 4 {
		t.Errorf("instructions = %d, want 4", got)
	}
}

func TestClflushEvictsData(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0x3000)
	b.Load(isa.R2, isa.R1, 0) // warm the line
	b.Clflush(isa.R1, 0)
	b.Halt()
	c, _ := runProg(t, b.MustBuild())
	if lvl := c.Hierarchy().DataCached(0x3000); lvl != 0 {
		t.Errorf("line still cached at level %d after clflush", lvl)
	}
}
