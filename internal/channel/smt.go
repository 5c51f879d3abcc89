package channel

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

// CrossSMT is the §V-B channel across two SMT threads of an AMD
// Zen-like core, whose micro-op cache is competitively shared. The
// Trojan (thread 1) sends a one by executing a wide tiger that evicts
// the spy's lines across many sets; it sends a zero by spinning on
// PAUSE. The spy (thread 0) continuously executes and times its own
// wide chain; its traversal time rises when the Trojan contends.
type CrossSMT struct {
	cfg Config
	c   *cpu.CPU

	recvEntry uint64
	oneEntry  uint64
	zeroEntry uint64
	th        attack.Threshold
}

// smtGeometry widens the default geometry: the paper's SMT channel
// touches all the sets of the micro-op cache.
func smtGeometry() attack.Geometry { return attack.Geometry{NSets: 16, NWays: 6} }

const (
	smtRecvBase  = 0x40000
	smtSendBase  = 0x100000
	smtPauseBase = 0x1C0000
)

// NewCrossSMT builds the channel. c must use an AMD-style (competitive
// sharing) configuration; on a statically partitioned cache the channel
// finds no signal, which is itself the paper's Intel result.
func NewCrossSMT(c *cpu.CPU, cfg Config) (*CrossSMT, error) {
	g := smtGeometry()
	recv, err := attack.Build(attack.Tiger(smtRecvBase, g, "smtrecv"))
	if err != nil {
		return nil, err
	}
	send, err := attack.Build(attack.FastTiger(smtSendBase, g, "smtsend"))
	if err != nil {
		return nil, err
	}

	// Zero-bit sender: PAUSE spin (PAUSE µops are never cached, so the
	// spin leaves no micro-op cache footprint).
	pb := asm.New(smtPauseBase)
	pb.Label("entry")
	pb.Label("ploop")
	for i := 0; i < 8; i++ {
		pb.Pause()
	}
	pb.Subi(isa.R14, 1)
	pb.Cmpi(isa.R14, 0)
	pb.Jcc(isa.NE, "ploop")
	pb.Halt()
	pause, err := pb.Build()
	if err != nil {
		return nil, err
	}

	merged, err := asm.Merge(recv.Prog, send.Prog, pause)
	if err != nil {
		return nil, err
	}
	c.LoadProgram(merged)

	ch := &CrossSMT{
		cfg:       cfg,
		c:         c,
		recvEntry: recv.Entry,
		oneEntry:  send.Entry,
		zeroEntry: pause.Entry,
	}

	// Warm-up windows: the first SMT window pays all the cold compulsory
	// misses and would poison the threshold.
	for i := 0; i < 2; i++ {
		if _, err := ch.round(false); err != nil {
			return nil, err
		}
		if _, err := ch.round(true); err != nil {
			return nil, err
		}
	}

	rounds := attack.Rounds{ProbeIters: cfg.ProbeIters}
	for i := 0; i < cfg.CalibrationRounds; i++ {
		z, err := ch.round(false)
		if err != nil {
			return nil, err
		}
		rounds.Hit = append(rounds.Hit, float64(z))
		o, err := ch.round(true)
		if err != nil {
			return nil, err
		}
		rounds.Miss = append(rounds.Miss, float64(o))
	}
	// The competitively shared cache gives a weaker contrast than the
	// same-thread channel, so accept any positive separation instead of
	// the full SeparationFloor — but keep the per-round spread stats.
	ch.th = rounds.Stats()
	if ch.th.MissMean <= ch.th.HitMean {
		return nil, fmt.Errorf("channel: no cross-SMT timing signal (%s)", ch.th.Spread())
	}
	return ch, nil
}

// round runs one simultaneous spy/Trojan window and returns the spy's
// traversal time.
func (ch *CrossSMT) round(bit bool) (uint64, error) {
	sender := ch.zeroEntry
	if bit {
		sender = ch.oneEntry
	}
	ch.c.SetReg(0, isa.R14, ch.cfg.PrimeIters+ch.cfg.ProbeIters)
	ch.c.SetReg(1, isa.R14, 1<<40) // Trojan runs for the spy's whole window
	res := ch.c.RunSMT(ch.recvEntry, sender, 20_000_000)
	if res[0].TimedOut {
		return 0, fmt.Errorf("channel: SMT spy window timed out")
	}
	return res[0].Cycles, nil
}

// Threshold exposes the calibrated decision threshold.
func (ch *CrossSMT) Threshold() attack.Threshold { return ch.th }

// TransmitBit sends one bit from the Trojan thread and returns the
// spy's reception.
func (ch *CrossSMT) TransmitBit(bit bool) (bool, error) {
	cycles, err := ch.round(bit)
	if err != nil {
		return false, err
	}
	return ch.th.Miss(cycles), nil
}

// Transmit sends payload bit-by-bit across the SMT boundary.
func (ch *CrossSMT) Transmit(payload []byte) ([]byte, Result, error) {
	return transmitBits(payload, ch.c, ch.TransmitBit)
}
