package channel

// The §V channels transmit through µop-cache *occupancy*: the sender
// evicts the receiver's sets and the receiver times its own probe.
// The alignment channel here transmits through legacy-decode *shape*
// instead — the Frontal-attack effect the static checker
// secret-dependent-jump-alignment flags. The transmitter encodes each
// bit by executing one of two µop-, byte-, and footprint-identical
// jump chains that differ only in conditional-jump alignment; the
// straddling chain stalls the predecoder JccAlignPenalty cycles per
// region on every MITE delivery. The receiver is the timing side of
// the same protocol: it observes only elapsed cycles of the
// transmitter's window (the victim-execution-time observable of the
// Frontal attack) and decodes against a calibrated threshold. No
// µop-cache state carries the bit — the chains are deliberately
// uncacheable, so the channel survives a receiver that cannot evict
// the transmitter at all.

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
)

// Alignment channel layout bases, clear of the prime+probe channels'.
const (
	alignStraddleBase = 0x100000
	alignAlignedBase  = 0x140000
)

// Alignment is the jump-alignment covert channel: one hardware thread,
// transmitter and timer in one address space.
type Alignment struct {
	cfg      Config
	c        *cpu.CPU
	straddle *attack.Routine
	aligned  *attack.Routine
	th       attack.Threshold
}

// NewAlignment builds, loads, and calibrates the alignment channel on
// c (thread 0). Calibration times both chains for CalibrationRounds
// rounds and cuts between the two distributions; the modelled
// Skylake penalty of 2 cycles per region separates them by well under
// attack.SeparationFloor's ratio test (the stall is a small fraction
// of a chain's MITE decode time), so the threshold is built from the
// raw round statistics rather than the floor-enforcing calibrator.
func NewAlignment(c *cpu.CPU, cfg Config) (*Alignment, error) {
	straddle, err := attack.Build(attack.StraddleChain(alignStraddleBase, cfg.Geometry, "straddle"))
	if err != nil {
		return nil, err
	}
	aligned, err := attack.Build(attack.AlignedChain(alignAlignedBase, cfg.Geometry, "aligned"))
	if err != nil {
		return nil, err
	}
	merged, err := asm.Merge(straddle.Prog, aligned.Prog)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)
	ch := &Alignment{cfg: cfg, c: c, straddle: straddle, aligned: aligned}

	// Settle branch predictors and the instruction side of the memory
	// hierarchy before timing anything.
	for _, r := range []*attack.Routine{aligned, straddle} {
		if _, err := r.Run(c, PrimeIters); err != nil {
			return nil, err
		}
	}
	// The aligned chain is the hit side, the straddling one the miss.
	r, err := attack.KnownRounds(0, CalibrationRounds, cfg.ProbeIters,
		func(hit bool) (uint64, error) { return ch.time(!hit) })
	if err != nil {
		return nil, err
	}
	ch.th = r.Stats()
	if ch.th.MissMin <= ch.th.HitMax {
		return nil, fmt.Errorf("channel: alignment timings overlap (%s)", ch.th.Spread())
	}
	return ch, nil
}

// Threshold exposes the calibrated aligned/straddle cut.
func (ch *Alignment) Threshold() attack.Threshold { return ch.th }

// time runs the transmitter once — the straddling chain for a one,
// the aligned chain for a zero — and returns the elapsed cycles.
func (ch *Alignment) time(bit bool) (uint64, error) {
	r := ch.aligned
	if bit {
		r = ch.straddle
	}
	return r.Run(ch.c, ch.cfg.ProbeIters)
}

// TransmitBit transmits one bit and decodes it from the elapsed
// cycles.
func (ch *Alignment) TransmitBit(bit bool) (bool, error) {
	cycles, err := ch.time(bit)
	if err != nil {
		return false, err
	}
	return ch.th.Miss(cycles), nil
}

// Transmit sends payload bit-by-bit and returns the received bytes
// and the channel statistics.
func (ch *Alignment) Transmit(payload []byte) ([]byte, Result, error) {
	return transmitBits(payload, ch.c, ch.TransmitBit)
}
