package ref

import (
	"bytes"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

// runBoth executes prog on the reference interpreter and the pipelined
// core from identical initial state and returns both machines.
func runBoth(t *testing.T, prog *asm.Program, gcfg GenConfig) (*Machine, *cpu.CPU) {
	t.Helper()
	// The generator places its kernel routine independently of the
	// core; both must agree on the SYSCALL target.
	if gcfg.KernelEntry != isa.KernelEntry {
		t.Fatalf("generator kernel entry %#x, core SYSCALL target %#x", gcfg.KernelEntry, isa.KernelEntry)
	}

	// Identical initial memory: a deterministic pattern in the scratch
	// window.
	pattern := make([]byte, gcfg.ScratchSize)
	for i := range pattern {
		pattern[i] = byte(i*37 + 11)
	}

	refMem := cpu.NewMemory(cpu.MemSize)
	refMem.WriteBytes(gcfg.ScratchBase, pattern)
	m := New(prog, refMem, gcfg.KernelEntry)
	m.Regs[isa.R15] = cpu.StackTop
	if err := m.Run(prog.Entry, 2_000_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.Mem().WriteBytes(gcfg.ScratchBase, pattern)
	res := c.Run(0, prog.Entry, 50_000_000)
	if res.TimedOut {
		t.Fatal("pipelined run timed out")
	}
	return m, c
}

// compareState asserts architectural equivalence.
func compareState(t *testing.T, seed uint64, m *Machine, c *cpu.CPU, gcfg GenConfig) {
	t.Helper()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if ref, pipe := m.Regs[r], c.Reg(0, r); ref != pipe {
			t.Errorf("seed %d: %v: ref %#x, pipeline %#x", seed, r, ref, pipe)
		}
	}
	refScr := make([]byte, gcfg.ScratchSize)
	for i := range refScr {
		refScr[i] = byte(m.mem.(*cpu.Memory).Read(gcfg.ScratchBase+uint64(i), 1))
	}
	pipeScr := c.Mem().ReadBytes(gcfg.ScratchBase, int(gcfg.ScratchSize))
	if !bytes.Equal(refScr, pipeScr) {
		for i := range refScr {
			if refScr[i] != pipeScr[i] {
				t.Errorf("seed %d: scratch[%#x]: ref %#x, pipeline %#x",
					seed, i, refScr[i], pipeScr[i])
				break
			}
		}
	}
	if m.KernelMode != c.Backend(0).KernelMode() {
		t.Errorf("seed %d: privilege mismatch", seed)
	}
}

// TestDifferentialRandomPrograms is the core validation of the
// pipelined core: across many random programs — with speculation,
// squashes, fences, syscalls, and memory traffic — the out-of-order
// engine must be architecturally indistinguishable from the sequential
// reference.
func TestDifferentialRandomPrograms(t *testing.T) {
	gcfg := DefaultGenConfig()
	for seed := uint64(1); seed <= 60; seed++ {
		prog, err := Generate(seed, gcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, c := runBoth(t, prog, gcfg)
		compareState(t, seed, m, c, gcfg)
	}
}

// TestDifferentialLargePrograms stresses deeper programs (more blocks,
// more memory traffic) at a handful of seeds.
func TestDifferentialLargePrograms(t *testing.T) {
	gcfg := DefaultGenConfig()
	gcfg.Blocks = 20
	gcfg.OpsPerBlock = 16
	for seed := uint64(100); seed < 110; seed++ {
		prog, err := Generate(seed, gcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, c := runBoth(t, prog, gcfg)
		compareState(t, seed, m, c, gcfg)
	}
}

// TestLateConsumerReadsLiveProducer holds the backend's entry ring to
// its invariant: a consumer's producer keeps its slot until the
// consumer leaves the ROB. The consumer C (LOAD R3,[R1]) reads R1 from
// the producer P (MOVI R1), 43 instructions earlier. C may not
// issue before the older store drains, and the store waits on two
// chained DRAM loads, while P retires behind the first one. The ROB
// head then stalls at the second load, and the NOPs behind C refill
// the ROB. So P's slot stays live for a whole ROB's worth of
// dispatches past the head. The second run, on warm code with both
// data lines flushed, dispatches fast enough to fill the ROB. A ring
// too small for the ROB hands P's slot to a younger NOP before C
// issues, and C loads from the NOP's result instead of R1.
func TestLateConsumerReadsLiveProducer(t *testing.T) {
	const (
		ptrAddr   = 0x20000 // holds valAddr: the first DRAM load
		valAddr   = 0x21000 // loaded through the first load's result
		storeAddr = 0x22000
		dataAddr  = 0x23000 // C's load: holds want
		want      = 0x1234
	)
	b := asm.New(0x10000)
	b.Movi(isa.R4, ptrAddr)
	b.Movi(isa.R7, storeAddr)
	b.Load(isa.R5, isa.R4, 0) // first DRAM load
	b.Movi(isa.R1, dataAddr)  // P
	for i := 0; i < 40; i++ {
		b.Nop(1)
	}
	b.Load(isa.R6, isa.R5, 0) // second DRAM load, through the first
	b.Store(isa.R7, 0, isa.R6)
	b.Load(isa.R3, isa.R1, 0) // C
	for i := 0; i < 300; i++ {
		b.Nop(1)
	}
	b.Halt()
	prog := b.MustBuild()

	initMem := func(m *cpu.Memory) {
		m.Write(ptrAddr, 8, valAddr)
		m.Write(valAddr, 8, 0x55)
		m.Write(dataAddr, 8, want)
	}
	refMem := cpu.NewMemory(cpu.MemSize)
	initMem(refMem)
	m := New(prog, refMem, isa.KernelEntry)
	m.Regs[isa.R15] = cpu.StackTop
	if err := m.Run(prog.Entry, 10_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if m.Regs[isa.R3] != want {
		t.Fatalf("reference R3 = %#x, want %#x", m.Regs[isa.R3], want)
	}

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	initMem(c.Mem())
	for run := 0; run < 2; run++ {
		c.Hierarchy().Flush(ptrAddr)
		c.Hierarchy().Flush(valAddr)
		if res := c.Run(0, prog.Entry, 1_000_000); res.TimedOut {
			t.Fatalf("run %d timed out", run)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if ref, pipe := m.Regs[r], c.Reg(0, r); ref != pipe {
				t.Errorf("run %d: %v: ref %#x, pipeline %#x", run, r, ref, pipe)
			}
		}
	}
}

// TestReferenceBasics sanity-checks the interpreter itself on a
// hand-written program.
func TestReferenceBasics(t *testing.T) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 5)
	b.Movi(isa.R2, 7)
	b.Add(isa.R1, isa.R2)
	b.Cmpi(isa.R1, 12)
	b.Jcc(isa.EQ, "ok")
	b.Movi(isa.R3, 111)
	b.Label("ok")
	b.Halt()
	prog := b.MustBuild()
	mem := cpu.NewMemory(1 << 16)
	m := New(prog, mem, 0x4000)
	if err := m.Run(prog.Entry, 1000); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.R1] != 12 || m.Regs[isa.R3] != 0 {
		t.Errorf("regs %v", m.Regs[:4])
	}
	if !m.Halted() {
		t.Error("not halted")
	}
}

// TestReferenceErrors covers the interpreter's failure modes.
func TestReferenceErrors(t *testing.T) {
	b := asm.New(0x1000)
	b.Label("loop")
	b.Jmp("loop")
	prog := b.MustBuild()
	m := New(prog, cpu.NewMemory(1<<12), 0x4000)
	if err := m.Run(prog.Entry, 100); err == nil {
		t.Error("infinite loop not caught by step limit")
	}
	m2 := New(prog, cpu.NewMemory(1<<12), 0x4000)
	if err := m2.Run(0x9999, 100); err == nil {
		t.Error("unmapped entry accepted")
	}
}

// TestGenerateDeterministic ensures generation is reproducible.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Insts {
		if a.Insts[i].Op != b.Insts[i].Op || a.Insts[i].Imm != b.Insts[i].Imm {
			t.Fatalf("inst %d differs", i)
		}
	}
	c, err := Generate(8, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() == c.Size() {
		// Same size is possible but identical streams are not.
		same := true
		for i := range a.Insts {
			if a.Insts[i].Op != c.Insts[i].Op || a.Insts[i].Imm != c.Insts[i].Imm {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds generated identical programs")
		}
	}
}
