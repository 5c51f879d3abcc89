package cpu_test

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// Example assembles a hot loop over eight 32-byte regions of NOPs, runs
// it twice, and reads the micro-op cache's effect from the performance
// counters. The cold run decodes every region through the legacy
// pipeline (MITE) and fills the micro-op cache; the warm run streams
// the same code from the cache (DSB). That timing difference is the
// covert channel.
func Example() {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.NopRegion(32, 3) // 3 µops per 32-byte region
	}
	b.Subi(isa.R14, 1)
	b.Cmpi(isa.R14, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	prog := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	fmt.Println(c)

	var cycles [2]uint64
	for i, name := range []string{"cold", "warm"} {
		c.SetReg(0, isa.R14, 100)
		r := c.Run(0, prog.Entry, 1_000_000)
		cycles[i] = r.Cycles
		fmt.Printf("%s %4d cycles  %d insts  DSB µops %d  MITE µops %2d  switch penalty %2d cycles\n",
			name, r.Cycles, r.Retired,
			r.Counters.Get(perfctr.DSBUops),
			r.Counters.Get(perfctr.MITEUops),
			r.Counters.Get(perfctr.DSBMissPenaltyCycles))
	}
	fmt.Printf("micro-op cache speedup: %.2fx\n", float64(cycles[0])/float64(cycles[1]))
	// Output:
	// cpu{uopcache 32 sets × 8 ways × 6 µops (static-partition)}
	// cold 1960 cycles  2701 insts  DSB µops 2586  MITE µops 28  switch penalty 28 cycles
	// warm  913 cycles  2701 insts  DSB µops 2613  MITE µops  0  switch penalty  0 cycles
	// micro-op cache speedup: 2.15x
}
