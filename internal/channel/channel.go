// Package channel implements the paper's §V covert channels over the
// micro-op cache: same-address-space, cross-privilege (user/kernel via
// a syscall trampoline), and cross-SMT-thread (on the competitively
// shared AMD-style cache). Every channel transmits bits purely through
// µop-cache conflict timing — no data-cache or instruction-cache signal
// is involved — and reports bandwidth and error rate like Table I.
package channel

import (
	"fmt"
	"math/bits"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
)

// ClockGHz converts simulated cycles to wall-clock for bandwidth
// figures, matching the paper's i7-8700T testbed clock.
const ClockGHz = 2.7

// The protocol counts every channel shares.
const (
	// PrimeIters is the receiver's priming traversal count: enough to
	// reclaim its sets from a hot opponent under the hotness
	// replacement policy.
	PrimeIters = 20
	// SendIters is the sender's traversal count per one-bit; it must
	// out-access the receiver's priming for the hotness policy to
	// yield.
	SendIters = 20
	// CalibrationRounds averages the threshold measurement.
	CalibrationRounds = 8
)

// Config tunes a covert channel.
type Config struct {
	Geometry attack.Geometry
	// ProbeIters is the number of chain traversals per timed probe —
	// the paper's "samples" knob. Few, so a lost set stays lost for
	// the duration of the measurement.
	ProbeIters int64
}

// DefaultConfig mirrors the paper's best-bandwidth operating point
// (8 sets × 6 ways, 5 samples).
func DefaultConfig() Config {
	return Config{Geometry: attack.DefaultGeometry(), ProbeIters: 5}
}

// Result summarizes a transmission (one Table I row).
type Result struct {
	Bits      int
	BitErrors int
	Cycles    uint64
}

// ErrorRate returns the fraction of bits received wrong.
func (r Result) ErrorRate() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.Bits)
}

// BandwidthKbps returns the raw channel bandwidth in Kbit/s at
// ClockGHz.
func (r Result) BandwidthKbps() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / (ClockGHz * 1e9)
	return float64(r.Bits) / seconds / 1e3
}

// SameAddressSpace is the §V-A channel: Trojan and spy share one
// address space and one hardware thread. The spy primes and times its
// tiger; the Trojan runs a conflicting tiger to send a one and the
// mutually exclusive zebra to send a zero.
type SameAddressSpace struct {
	cfg  Config
	c    *cpu.CPU
	recv *attack.Routine
	send *attack.Routine
	zeb  *attack.Routine
	th   attack.Threshold
}

// Channel layout bases; far enough apart that no two routines share
// instruction addresses.
const (
	recvBase  = 0x40000
	sendBase  = 0x80000
	zebraBase = 0xC0000
)

// NewSameAddressSpace builds, loads, and calibrates the channel on c
// (thread 0).
func NewSameAddressSpace(c *cpu.CPU, cfg Config) (*SameAddressSpace, error) {
	recv, err := attack.Build(attack.Tiger(recvBase, cfg.Geometry, "recv"))
	if err != nil {
		return nil, err
	}
	send, err := attack.Build(attack.Tiger(sendBase, cfg.Geometry, "send"))
	if err != nil {
		return nil, err
	}
	zeb, err := attack.Build(attack.Zebra(zebraBase, cfg.Geometry, "zebra"))
	if err != nil {
		return nil, err
	}
	merged, err := asm.Merge(recv.Prog, send.Prog, zeb.Prog)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)
	ch := &SameAddressSpace{cfg: cfg, c: c, recv: recv, send: send, zeb: zeb}
	ch.th, err = attack.Calibrate(c, recv, send, PrimeIters, cfg.ProbeIters, CalibrationRounds)
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// Threshold exposes the calibrated hit/miss cut.
func (ch *SameAddressSpace) Threshold() attack.Threshold { return ch.th }

// SendBit transmits one bit from the Trojan side.
func (ch *SameAddressSpace) SendBit(bit bool) error {
	r := ch.zeb
	if bit {
		r = ch.send
	}
	_, err := r.Run(ch.c, SendIters)
	return err
}

// TransmitBit runs one full prime → send → probe round and returns the
// received bit.
func (ch *SameAddressSpace) TransmitBit(bit bool) (bool, error) {
	if _, err := ch.recv.Run(ch.c, PrimeIters); err != nil {
		return false, err
	}
	if err := ch.SendBit(bit); err != nil {
		return false, err
	}
	cycles, err := ch.recv.Run(ch.c, ch.cfg.ProbeIters)
	if err != nil {
		return false, err
	}
	return ch.th.Miss(cycles), nil
}

// Transmit sends payload bit-by-bit and returns the received bytes and
// the channel statistics.
func (ch *SameAddressSpace) Transmit(payload []byte) ([]byte, Result, error) {
	return transmitBits(payload, ch.c, ch.TransmitBit)
}

// transmitBits drives a per-bit channel function over a payload and
// counts the bits received wrong.
func transmitBits(payload []byte, c *cpu.CPU, bitFn func(bool) (bool, error)) ([]byte, Result, error) {
	out, res, err := receiveBits(len(payload), c, func(i, k int) (bool, error) {
		return bitFn((payload[i]>>k)&1 == 1)
	})
	if err != nil {
		return nil, res, err
	}
	for i := range payload {
		res.BitErrors += bits.OnesCount8(payload[i] ^ out[i])
	}
	return out, res, nil
}

// receiveBits is the one per-bit loop every channel runs: it receives
// nBytes bytes most significant bit first, asking bitFn for bit k of
// byte i, and measures cycles via the CPU's global clock.
func receiveBits(nBytes int, c *cpu.CPU, bitFn func(i, k int) (bool, error)) ([]byte, Result, error) {
	out := make([]byte, nBytes)
	var res Result
	start := c.Cycle()
	for i := range out {
		for k := 7; k >= 0; k-- {
			got, err := bitFn(i, k)
			if err != nil {
				return nil, res, fmt.Errorf("channel: bit %d: %w", res.Bits, err)
			}
			if got {
				out[i] |= 1 << k
			}
			res.Bits++
		}
	}
	res.Cycles = c.Cycle() - start
	return out, res, nil
}
