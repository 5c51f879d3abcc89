package transient

import (
	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// NaturalGadget mounts the §VI-A "naturally occurring gadget"
// experiment: the victim is a pci_vpd_find_tag-style routine whose own
// bit-mask-plus-dependent-branch structure transmits the transiently
// read tag bit — the attacker supplies no disclosure gadget at all,
// only a malicious offset and a micro-op cache probe of the victim's
// "large tag" handler.
type NaturalGadget struct {
	c   *cpu.CPU
	lay victim.Layout

	eraser      *attack.Routine
	th          attack.Threshold
	attackEntry uint64
	probeEntry  uint64
	touchEntry  uint64
}

// NewNaturalGadget assembles the victim with its two tag handlers —
// the large-tag handler is a chain through the probed sets, standing
// in for a distinctive hot kernel path — and calibrates the probe.
func NewNaturalGadget(c *cpu.CPU) (*NaturalGadget, error) {
	v, err := buildNaturalGadget(c)
	if err != nil {
		return nil, err
	}
	if err := v.calibrate(); err != nil {
		return nil, err
	}
	return v, nil
}

// ngGeometry avoids the sets the victim's own code regions occupy
// (the image around 0x20000 maps to sets 0-1).
func ngGeometry() attack.Geometry { return attack.Geometry{NSets: 2, NWays: 6, FirstSet: 3} }

func buildNaturalGadget(c *cpu.CPU) (*NaturalGadget, error) {
	lay := victim.DefaultLayout()
	g := ngGeometry()
	eraser, err := attack.Build(attack.Tiger(eraserBase, g, "ngerase"))
	if err != nil {
		return nil, err
	}
	large := attack.FastTiger(senderBase, g, "nglarge")
	small := attack.Zebra(zebraBase, g, "ngsmall")

	ab := asm.New(victimCode)
	victim.PCIVPDStyleGadget(ab, lay)
	victim.SecretUse(ab, lay)

	// Tag handlers: each traverses its chain R7 times and returns (the
	// loop bound keeps architectural training runs finite while letting
	// transient runs loop until the squash).
	ab.Org(gadgetCode - 0x1000)
	ab.Label("touch_entry")
	ab.Call("victim_use_secret")
	ab.Halt()
	ab.Org(gadgetCode)
	ab.Label("ng_attack")
	ab.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	ab.Call("vpd_find_tag")
	ab.Halt()
	orgToSet(ab, 31)
	ab.Label("ng_probe")
	ab.Call("vpd_large")
	ab.Halt()

	orgToSet(ab, 28)
	ab.Label("vpd_large")
	ab.Jmp(large.EntryLabel())
	if err := large.Emit(ab, "large_tail"); err != nil {
		return nil, err
	}
	orgToSet(ab, 24)
	ab.Label("large_tail")
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, large.EntryLabel())
	ab.Ret()

	orgToSet(ab, 30)
	ab.Label("vpd_small")
	ab.Jmp(small.EntryLabel())
	if err := small.Emit(ab, "small_tail"); err != nil {
		return nil, err
	}
	orgToSet(ab, 26)
	ab.Label("small_tail")
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, small.EntryLabel())
	ab.Ret()

	prog, err := ab.Build()
	if err != nil {
		return nil, err
	}
	merged, err := asm.Merge(eraser.Prog, prog)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)

	v := &NaturalGadget{
		c: c, lay: lay, eraser: eraser,
		attackEntry: prog.MustLabel("ng_attack"),
		probeEntry:  prog.MustLabel("ng_probe"),
		touchEntry:  prog.MustLabel("touch_entry"),
	}
	c.Mem().Write(lay.ArraySizeAddr, 8, lay.ArrayLen)
	// Public buffer: bytes 0-6 carry small tags (0x00) for the
	// interleaved mistraining; bytes 7-13 carry large tags (0x80) for
	// the legitimate pre-warm calls that pull the large handler's code
	// into the instruction cache.
	for i := 7; i < 14; i++ {
		c.Mem().Write(lay.ArrayBase+uint64(i), 1, 0x80)
	}
	return v, nil
}

// WriteSecret plants the out-of-bounds "VPD data" the malicious offset
// reaches.
func (v *NaturalGadget) WriteSecret(secret []byte) {
	v.c.Mem().WriteBytes(v.lay.SecretBase, secret)
}

// Threshold exposes the calibrated probe threshold (HitMean = tag bit
// set, i.e. large-path fetched).
func (v *NaturalGadget) Threshold() attack.Threshold { return v.th }

// train performs in-bounds calls against small-tag bytes (0-6), so the
// interleaved mistraining always exercises the small handler: the
// large path stays out of the probed sets until a transient large tag
// steers fetch there.
func (v *NaturalGadget) train(rounds int) error {
	return v.trainAt(0, rounds)
}

// trainLarge performs in-bounds calls against large-tag bytes (7-13) —
// the victim's legitimate large-path activity, which keeps that
// handler's code warm in the instruction cache (so the transient fetch
// is not spent on DRAM instruction fills).
func (v *NaturalGadget) trainLarge(rounds int) error {
	return v.trainAt(7, rounds)
}

func (v *NaturalGadget) trainAt(base, rounds int) error {
	for i := 0; i < rounds; i++ {
		v.c.SetReg(0, isa.R1, int64(base+i%7))
		v.c.SetReg(0, isa.R2, 0)
		v.c.SetReg(0, isa.R7, 1)
		if _, err := run(v.c, v.attackEntry, "gadget training"); err != nil {
			return err
		}
	}
	return nil
}

func (v *NaturalGadget) probe() (uint64, error) {
	v.c.SetReg(0, isa.R7, 1)
	return run(v.c, v.probeEntry, "gadget probe")
}

// leakRaw runs the per-bit protocol against secret byte byteIndex's
// top bit (the gadget's 0x80 mask) and returns the probe time.
func (v *NaturalGadget) leakRaw(byteIndex int) (uint64, error) {
	// Legitimate large-path calls warm the handler's instruction lines
	// BEFORE the erase: the erase clears only the micro-op cache, so
	// the subsequent transient windows decode at L1I speed.
	if err := v.trainLarge(4); err != nil {
		return 0, err
	}
	if _, err := v.eraser.Run(v.c, presenceEraseIters); err != nil {
		return 0, err
	}
	v.c.SetReg(0, isa.R1, int64(byteIndex))
	if _, err := run(v.c, v.touchEntry, "secret-use"); err != nil {
		return 0, err
	}
	idx := int64(v.lay.SecretBase-v.lay.ArrayBase) + int64(byteIndex)
	for r := 0; r < presenceAttackReps; r++ {
		if err := v.train(2); err != nil {
			return 0, err
		}
		v.c.SetReg(0, isa.R1, idx)
		v.c.SetReg(0, isa.R2, 0)
		v.c.SetReg(0, isa.R7, presenceXmitLoops)
		if _, err := run(v.c, v.attackEntry, "gadget attack"); err != nil {
			return 0, err
		}
	}
	return v.probe()
}

func (v *NaturalGadget) calibrate() (err error) {
	v.th, err = calibratePresence("natural-gadget", v.WriteSecret,
		func() (uint64, error) { return v.leakRaw(0) })
	return err
}

// LeakTagBit recovers the 0x80 bit of the out-of-bounds byte at
// byteIndex past the public buffer.
func (v *NaturalGadget) LeakTagBit(byteIndex int) (bool, error) {
	cycles, err := v.leakRaw(byteIndex)
	if err != nil {
		return false, err
	}
	return v.th.Hit(cycles), nil
}
