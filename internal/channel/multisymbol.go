package channel

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
)

// MultiSymbol is the jump-table bandwidth optimization the paper
// sketches (§VI-A): instead of one tiger/zebra pair carrying one bit
// per round, the Trojan selects one of 2^k tigers occupying mutually
// exclusive set groups, transmitting k bits per round. The spy probes
// each group and decodes the symbol from which probe went slow.
type MultiSymbol struct {
	cfg  Config
	c    *cpu.CPU
	bits int
	recv []*attack.Routine  // one receiver per set group
	send []*attack.Routine  // one sender per set group
	th   []attack.Threshold // per-group hit/miss threshold
}

// msBase spaces the routines' code images.
const msBase = 0x200000

// NewMultiSymbol builds a 2^bits-symbol channel (bits is 1 or 2, so
// bytes divide evenly into symbols; 2 bits ⇒ four 8-set stripes).
func NewMultiSymbol(c *cpu.CPU, cfg Config, bits int) (*MultiSymbol, error) {
	if bits < 1 || bits > 2 {
		return nil, fmt.Errorf("channel: multi-symbol bits %d out of range [1,2]", bits)
	}
	nsym := 1 << bits
	// Each symbol gets 32/nsym evenly spaced sets, offset so the
	// groups interleave without overlap.
	ch := &MultiSymbol{cfg: cfg, c: c, bits: bits}
	var progs []*asm.Program
	for s := 0; s < nsym; s++ {
		g := attack.Geometry{NSets: 32 / nsym, NWays: cfg.Geometry.NWays, FirstSet: s}
		recv, err := attack.Build(attack.Tiger(msBase+uint64(s)*0x40000, g,
			fmt.Sprintf("msr%d", s)))
		if err != nil {
			return nil, err
		}
		send, err := attack.Build(attack.Tiger(msBase+uint64(nsym+s)*0x40000, g,
			fmt.Sprintf("mss%d", s)))
		if err != nil {
			return nil, err
		}
		ch.recv = append(ch.recv, recv)
		ch.send = append(ch.send, send)
		progs = append(progs, recv.Prog, send.Prog)
	}
	merged, err := asm.Merge(progs...)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)

	// Calibrate each group independently.
	for s := 0; s < nsym; s++ {
		th, err := attack.Calibrate(c, ch.recv[s], ch.send[s],
			PrimeIters, cfg.ProbeIters, CalibrationRounds)
		if err != nil {
			return nil, fmt.Errorf("channel: group %d: %w", s, err)
		}
		ch.th = append(ch.th, th)
	}
	return ch, nil
}

// Symbols returns the alphabet size.
func (ch *MultiSymbol) Symbols() int { return 1 << ch.bits }

// Thresholds exposes the per-group calibrated thresholds.
func (ch *MultiSymbol) Thresholds() []attack.Threshold { return ch.th }

// BitsPerSymbol returns the per-round payload.
func (ch *MultiSymbol) BitsPerSymbol() int { return ch.bits }

// TransmitSymbol runs one prime → send → probe round for a symbol in
// [0, Symbols()).
func (ch *MultiSymbol) TransmitSymbol(sym int) (int, error) {
	if sym < 0 || sym >= ch.Symbols() {
		return 0, fmt.Errorf("channel: symbol %d out of range", sym)
	}
	for _, r := range ch.recv {
		if _, err := r.Run(ch.c, PrimeIters); err != nil {
			return 0, err
		}
	}
	if _, err := ch.send[sym].Run(ch.c, SendIters); err != nil {
		return 0, err
	}
	// Decode: the group whose probe overshoots its threshold the most.
	// This is a relative argmax over cycles/cut ratios, not a boundary
	// classification, so attack.Threshold's exactly-on-Cut convention
	// does not apply here: a probe landing exactly on its cut scores
	// 1.0 and wins only if every other group scored below its own cut.
	best, bestScore := 0, -1.0
	for s, r := range ch.recv {
		cycles, err := r.Run(ch.c, ch.cfg.ProbeIters)
		if err != nil {
			return 0, err
		}
		score := float64(cycles) / ch.th[s].Cut
		if score > bestScore {
			best, bestScore = s, score
		}
	}
	return best, nil
}

// Transmit sends the payload in k-bit symbols and reports the usual
// channel statistics (bit-granular errors).
func (ch *MultiSymbol) Transmit(payload []byte) ([]byte, Result, error) {
	out := make([]byte, len(payload))
	var res Result
	start := ch.c.Cycle()
	mask := ch.Symbols() - 1
	for i, b := range payload {
		for shift := 8 - ch.bits; shift >= 0; shift -= ch.bits {
			sym := (int(b) >> shift) & mask
			got, err := ch.TransmitSymbol(sym)
			if err != nil {
				return nil, res, err
			}
			out[i] |= byte(got << shift)
			for k := 0; k < ch.bits; k++ {
				if (sym>>k)&1 != (got>>k)&1 {
					res.BitErrors++
				}
				res.Bits++
			}
		}
	}
	res.Cycles = ch.c.Cycle() - start
	return out, res, nil
}
