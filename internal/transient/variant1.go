// Package transient implements the §VI transient-execution attacks:
//
//   - Variant 1: a Spectre-v1-style bounds-check bypass whose disclosure
//     primitive is the micro-op cache — the transiently read secret
//     steers a (squashed) transmitter whose fetch footprint survives the
//     squash.
//   - The §VI-A natural gadget: a pci_vpd_find_tag-style victim whose
//     own bit test and dependent branch transmit the transiently read
//     tag bit, with no attacker-supplied disclosure gadget.
//   - Variant 2: an authorization-check bypass whose transmitter is a
//     secret-dependent indirect call. The secret is encoded in the
//     indirect branch predictor by legitimate runs; a transient fetch at
//     the predicted target leaks it even under LFENCE, before the call
//     is ever dispatched to execution.
//   - The classic Spectre-v1 baseline transmitting over the LLC with
//     flush+reload, for the Table II comparison.
//
// Variant 1 and the natural gadget share one disclosure protocol, a
// presence test on the micro-op cache (presence.go): erase the probed
// sets, trigger the victim transiently, then time one traversal of the
// transmitter chain. Each supplies only its victim image and the
// registers its calls take.
package transient

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/victim"
)

// Code layout bases.
const (
	victimCode = 0x20000
	gadgetCode = 0x30000
	eraserBase = 0x40000
	senderBase = 0x80000
	zebraBase  = 0xC0000
	maxRun     = 5_000_000
)

// run executes one single-shot routine on thread 0 and returns its
// cycles; what names the routine in the timeout error.
func run(c *cpu.CPU, entry uint64, what string) (uint64, error) {
	res := c.Run(0, entry, maxRun)
	if res.TimedOut {
		return 0, fmt.Errorf("transient: %s timed out", what)
	}
	return res.Cycles, nil
}

// transientGeometry is small enough that one transient traversal fits
// inside the speculation window opened by one flushed load.
func transientGeometry() attack.Geometry { return attack.Geometry{NSets: 2, NWays: 6, FirstSet: 1} }

// Variant1 is the µop-cache Spectre attack. Its disclosure protocol
// is the presence test (see presence): a fast traversal of the
// transmitter chain means the transient fetch happened — the bit was
// one.
type Variant1 struct{ *presence }

// NewVariant1 assembles the victim library, the attacker gadget, and
// the probing tigers, then calibrates the timing threshold.
func NewVariant1(c *cpu.CPU) (*Variant1, error) {
	p, err := newPresence(c, "variant-1", transientGeometry(), variant1Image)
	if err != nil {
		return nil, err
	}
	p.bitReg = true
	if err := p.calibrate(); err != nil {
		return nil, err
	}
	return &Variant1{p}, nil
}

// variant1Image emits the victim library and the attacker gadget in
// one image, so the gadget's CALL can reference the victim's label.
// Training calls index the public array, whose zero bytes always steer
// the architectural transmission down the zebra path — it never
// touches the probed sets. (A transient one-bit then mispredicts the
// bit branch and redirects fetch into the tiger, inside the window.)
func variant1Image(ab *asm.Builder, lay victim.Layout) (string, error) {
	g := transientGeometry()
	send := attack.FastTiger(senderBase, g, "v1send")
	zeb := attack.Zebra(zebraBase, g, "v1zebra")
	victim.BoundsCheckVictim(ab, lay)
	emitAttackEntry(ab, lay, "victim_function")
	// Architecturally the out-of-bounds call returns -1 and we skip
	// transmission; transiently R0 holds the secret byte and the
	// branch below resolves the other way, steering fetch into the
	// transmitter.
	ab.Cmpi(victim.RegRet, -1)
	ab.Jcc(isa.EQ, "attack_done")
	ab.Mov(isa.R3, victim.RegRet)
	ab.Shr(isa.R3, isa.R6)
	ab.Andi(isa.R3, 1)
	ab.Cmpi(isa.R3, 0)
	ab.Jcc(isa.EQ, "send_zero")
	ab.Jmp(send.EntryLabel())
	ab.Label("send_zero")
	ab.Jmp(zeb.EntryLabel())
	ab.Label("attack_done")
	ab.Halt()
	if err := loopChain(ab, send, 24, false); err != nil {
		return "", err
	}
	if err := loopChain(ab, zeb, 26, false); err != nil {
		return "", err
	}
	return send.EntryLabel(), nil
}

// LeakBit transiently reads bit `bit` of secret byte `byteIndex`.
func (v *Variant1) LeakBit(byteIndex, bit int) (bool, error) {
	return v.leakBit(byteIndex, bit)
}

// Leak recovers nBytes of the victim's secret bit-by-bit.
func (v *Variant1) Leak(nBytes int) ([]byte, Stats, error) {
	out := make([]byte, nBytes)
	var st Stats
	st.begin(v.c)
	for i := 0; i < nBytes; i++ {
		for k := 0; k < 8; k++ {
			bit, err := v.LeakBit(i, k)
			if err != nil {
				return nil, st, err
			}
			if bit {
				out[i] |= 1 << k
			}
			st.Bits++
		}
	}
	st.end(v.c)
	return out, st, nil
}
