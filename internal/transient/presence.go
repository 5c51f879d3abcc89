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

// The per-bit protocol of the presence test: the eraser tiger runs
// presenceEraseIters traversals, then the victim is triggered
// presenceAttackReps times, each with the transmitter looping
// presenceXmitLoops times.
const (
	presenceEraseIters = 30
	presenceAttackReps = 4
	presenceXmitLoops  = 50
)

// presence is the disclosure protocol Variant1 and NaturalGadget
// share, a presence test on the micro-op cache: the attacker erases
// the probed sets with a conflicting tiger, triggers the victim so its
// transient transmitter (re)fills them — or not, per the secret bit —
// and then times one traversal of the transmitter chain itself. A fast
// traversal means the transient fetch happened. Each attack supplies
// its victim image and the registers its calls take; presence owns
// the rest.
//
// Every call into the attack entry takes R1 = index into the public
// array, R2 = 0, R6 = bit index (bitReg only), and R7 = transmitter
// loop count: 1 during training so the architectural transmission
// terminates, larger during attacks so the transient transmission
// loops until the squash.
type presence struct {
	c           *cpu.CPU
	lay         victim.Layout
	name        string
	eraser      *attack.Routine
	th          attack.Threshold
	attackEntry uint64
	probeEntry  uint64
	touchEntry  uint64
	// bitReg passes the attacked bit index in R6 (Variant1's gadget
	// shifts the byte by it; NaturalGadget's victim masks a fixed bit).
	bitReg bool
	// prewarm, when set, runs before each erase.
	prewarm func() error
}

// newPresence builds the eraser tiger over g and the attack image —
// image emits the victim code, the attack entry (emitAttackEntry) and
// the transmitter chains, and returns the probe entry's label — and
// loads both into c.
func newPresence(c *cpu.CPU, name string, g attack.Geometry, image func(*asm.Builder, victim.Layout) (string, error)) (*presence, error) {
	lay := victim.DefaultLayout()
	eraser, err := attack.Build(attack.Tiger(eraserBase, g, "erase"))
	if err != nil {
		return nil, err
	}
	ab := asm.New(victimCode)
	probe, err := image(ab, lay)
	if err != nil {
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
	return &presence{
		c: c, lay: lay, name: name, eraser: eraser,
		attackEntry: prog.MustLabel("attack_entry"),
		probeEntry:  prog.MustLabel(probe),
		touchEntry:  prog.MustLabel("touch_entry"),
	}, nil
}

// emitAttackEntry emits the victim's own periodic secret use at
// touch_entry (see victim.SecretUse) and the attack entry: flush the
// array size so the bounds check resolves late, then call the victim
// function fn. The caller emits what follows the call.
func emitAttackEntry(ab *asm.Builder, lay victim.Layout, fn string) {
	victim.SecretUse(ab, lay)
	ab.Org(gadgetCode - 0x1000)
	ab.Label("touch_entry")
	ab.Call("victim_use_secret")
	ab.Halt()
	ab.Org(gadgetCode)
	ab.Label("attack_entry")
	ab.Clflush(isa.R2, int64(lay.ArraySizeAddr))
	ab.Call(fn)
}

// loopChain emits chain looping R7 times: the chain, then, in the next
// region of tailSet (away from the probed sets), the tail that counts
// R7 down and re-enters the chain, ending in RET when ret is set and
// HALT otherwise.
func loopChain(ab *asm.Builder, chain *codegen.ChainSpec, tailSet int, ret bool) error {
	tail := chain.Label + "_tail"
	if err := chain.Emit(ab, tail); err != nil {
		return err
	}
	orgToSet(ab, tailSet)
	ab.Label(tail)
	ab.Subi(isa.R7, 1)
	ab.Cmpi(isa.R7, 0)
	ab.Jcc(isa.NE, chain.EntryLabel())
	if ret {
		ab.Ret()
	} else {
		ab.Halt()
	}
	return nil
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

// WriteSecret plants the victim's secret bytes: the out-of-bounds data
// the malicious index reaches.
func (p *presence) WriteSecret(secret []byte) {
	p.c.Mem().WriteBytes(p.lay.SecretBase, secret)
}

// Threshold exposes the calibrated probe threshold. For the presence
// test, HitMean is the one-bit (transmitter present) mean and MissMean
// the zero-bit mean.
func (p *presence) Threshold() attack.Threshold { return p.th }

// call runs the attack entry once with the given register arguments.
func (p *presence) call(index int64, bit int, loops int64, what string) error {
	p.c.SetReg(0, isa.R1, index)
	p.c.SetReg(0, isa.R2, 0)
	if p.bitReg {
		p.c.SetReg(0, isa.R6, int64(bit))
	}
	p.c.SetReg(0, isa.R7, loops)
	_, err := run(p.c, p.attackEntry, what)
	return err
}

// train makes rounds in-bounds calls at public indices base+i%7, so
// the bounds check predicts the in-bounds path; the calls also train
// the attack code's own branches.
func (p *presence) train(base, rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := p.call(int64(base+i%7), 0, 1, "training run"); err != nil {
			return err
		}
	}
	return nil
}

// probe times one traversal of the transmitter chain: fast if the
// transient transmission installed it, slow if the eraser still owns
// the sets.
func (p *presence) probe() (uint64, error) {
	p.c.SetReg(0, isa.R7, 1)
	return run(p.c, p.probeEntry, "probe")
}

// leakRaw runs the per-bit protocol against bit `bit` of secret byte
// byteIndex and returns the probe time. Training interleaves with the
// attack repetitions: every misspeculated attack call re-trains the
// bounds check toward the taken (out-of-bounds) outcome, so two benign
// calls precede each malicious one — the classic Spectre-v1 cadence.
func (p *presence) leakRaw(byteIndex, bit int) (uint64, error) {
	if p.prewarm != nil {
		if err := p.prewarm(); err != nil {
			return 0, err
		}
	}
	if _, err := p.eraser.Run(p.c, presenceEraseIters); err != nil {
		return 0, err
	}
	// The victim's own activity keeps the secret line cache-resident
	// (the conventional Spectre assumption; without it the transient
	// dependent branch cannot resolve inside the window).
	p.c.SetReg(0, isa.R1, int64(byteIndex))
	if _, err := run(p.c, p.touchEntry, "victim secret-use"); err != nil {
		return 0, err
	}
	idx := int64(p.lay.SecretBase-p.lay.ArrayBase) + int64(byteIndex)
	for r := 0; r < presenceAttackReps; r++ {
		if err := p.train(0, 2); err != nil {
			return 0, err
		}
		if err := p.call(idx, bit, presenceXmitLoops, "attack run"); err != nil {
			return 0, err
		}
	}
	return p.probe()
}

// leakBit runs the per-bit protocol and classifies the probe: a fast
// probe means the transmitter chain is present, so the bit was one.
func (p *presence) leakBit(byteIndex, bit int) (bool, error) {
	cycles, err := p.leakRaw(byteIndex, bit)
	if err != nil {
		return false, err
	}
	return p.th.Hit(cycles), nil
}

// calibrate measures both probe distributions on known bits of secret
// byte 0: the hit side plants an all-ones byte so the transient
// transmitter installs the probed chain, the miss side an all-zeros
// byte so the eraser keeps it. Two warm-up pairs fill the instruction
// cache and train the branch predictors; the first windows are
// otherwise consumed by cold L1I misses. The probe times one
// traversal, and any positive separation is accepted: the signal is a
// single chain's presence, not a tuned prime+probe ratio.
func (p *presence) calibrate() error {
	r, err := attack.KnownRounds(2, 6, 1, func(hit bool) (uint64, error) {
		secret := byte(0x00)
		if hit {
			secret = 0xFF
		}
		p.WriteSecret([]byte{secret})
		return p.leakRaw(0, 0)
	})
	if err != nil {
		return err
	}
	p.th = r.Stats()
	if p.th.MissMean <= p.th.HitMean {
		return fmt.Errorf("transient: no %s signal (%s)", p.name, p.th.Spread())
	}
	return nil
}
