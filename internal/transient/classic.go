package transient

import (
	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// ClassicSpectre is the original Spectre-v1 attack transmitting over
// the LLC with flush+reload: the transiently read secret byte indexes a
// 256-line probe array; the attacker then times a load of each line and
// takes the fast one as the byte. It exists as the Table II baseline
// for the micro-op cache variant.
type ClassicSpectre struct {
	c   *cpu.CPU
	lay victim.Layout

	attackEntry uint64
	probeEntry  uint64
}

const (
	// classicLineStride spaces probe-array entries one cache line apart.
	classicLineStride = 64
	// classicAttackReps is the number of (train, misspeculate) rounds
	// per byte before probing.
	classicAttackReps = 2
)

// NewClassicSpectre assembles the victim and the flush+reload harness.
func NewClassicSpectre(c *cpu.CPU) (*ClassicSpectre, error) {
	lay := victim.DefaultLayout()

	ab := asm.New(victimCode)
	victim.BoundsCheckVictim(ab, lay)
	ab.Org(gadgetCode)
	// Attack gadget: R1 = index, R2 = 0. The transient path loads
	// probe_array[secret*64], leaving an LLC footprint.
	ab.Label("cl_attack")
	ab.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	ab.Call("victim_function")
	ab.Cmpi(victim.RegRet, -1)
	ab.Jcc(isa.EQ, "cl_done")
	ab.Shli(victim.RegRet, 6)
	ab.Loadb(isa.R5, victim.RegRet, int64(lay.ProbeArray))
	ab.Label("cl_done")
	ab.Halt()
	// Reload probe: R1 = guess*64; time one load.
	orgToSet(ab, 28)
	ab.Label("cl_probe")
	ab.Loadb(isa.R5, isa.R1, int64(lay.ProbeArray))
	ab.Halt()
	prog, err := ab.Build()
	if err != nil {
		return nil, err
	}
	c.LoadProgram(prog)

	cl := &ClassicSpectre{
		c: c, lay: lay,
		attackEntry: prog.MustLabel("cl_attack"),
		probeEntry:  prog.MustLabel("cl_probe"),
	}
	c.Mem().Write(lay.ArraySizeAddr, 8, lay.ArrayLen)
	return cl, nil
}

// WriteSecret plants the victim's secret.
func (cl *ClassicSpectre) WriteSecret(secret []byte) {
	cl.c.Mem().WriteBytes(cl.lay.SecretBase, secret)
}

// flushProbeArray evicts all 256 probe lines (the attacker's clflush
// loop; performed host-side for brevity, charging no victim cycles —
// the same simplification favours the baseline in the comparison).
func (cl *ClassicSpectre) flushProbeArray() {
	for g := 0; g < 256; g++ {
		cl.c.Hierarchy().Flush(cl.lay.ProbeArray + uint64(g*classicLineStride))
	}
}

func (cl *ClassicSpectre) train(rounds int) error {
	for i := 0; i < rounds; i++ {
		cl.c.SetReg(0, isa.R1, int64(i%7))
		cl.c.SetReg(0, isa.R2, 0)
		if _, err := run(cl.c, cl.attackEntry, "classic training"); err != nil {
			return err
		}
	}
	return nil
}

// LeakByte recovers one secret byte via flush+reload over the LLC.
func (cl *ClassicSpectre) LeakByte(byteIndex int) (byte, error) {
	cl.flushProbeArray()
	idx := int64(cl.lay.SecretBase-cl.lay.ArrayBase) + int64(byteIndex)
	for r := 0; r < classicAttackReps; r++ {
		if err := cl.train(2); err != nil {
			return 0, err
		}
		cl.c.SetReg(0, isa.R1, idx)
		cl.c.SetReg(0, isa.R2, 0)
		if _, err := run(cl.c, cl.attackEntry, "classic attack"); err != nil {
			return 0, err
		}
	}
	// The training calls architecturally touched probe line 0 (the
	// public array holds zeros); drop it so it cannot shadow the
	// transient line. Guess 0 is thereby unreadable — the standard
	// Spectre-v1 concession of sacrificing the training value's line.
	cl.c.Hierarchy().Flush(cl.lay.ProbeArray)
	// Reload: the guess whose line loads fastest is the byte.
	best, bestCycles := 0, uint64(1<<62)
	for g := 0; g < 256; g++ {
		cl.c.SetReg(0, isa.R1, int64(g*classicLineStride))
		cycles, err := run(cl.c, cl.probeEntry, "classic probe")
		if err != nil {
			return 0, err
		}
		if cycles < bestCycles {
			best, bestCycles = g, cycles
		}
	}
	return byte(best), nil
}

// Leak recovers nBytes of the victim's secret byte-by-byte.
func (cl *ClassicSpectre) Leak(nBytes int) ([]byte, Stats, error) {
	out := make([]byte, nBytes)
	var st Stats
	st.begin(cl.c)
	for i := 0; i < nBytes; i++ {
		b, err := cl.LeakByte(i)
		if err != nil {
			return nil, st, err
		}
		out[i] = b
		st.Bits += 8
	}
	st.end(cl.c)
	return out, st, nil
}
