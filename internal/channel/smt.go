package channel

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
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
	codegen.LoopTail(pb, "ploop")
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

	// Calibrate with known bits: a hit window runs the PAUSE spin, a
	// miss window the evicting tiger. Two warm-up pairs absorb the cold
	// compulsory misses the first SMT windows pay, which would poison
	// the threshold.
	r, err := attack.KnownRounds(2, CalibrationRounds, cfg.ProbeIters,
		func(hit bool) (uint64, error) { return ch.round(!hit) })
	if err != nil {
		return nil, err
	}
	// The competitively shared cache gives a weaker contrast than the
	// same-thread channel, so accept any positive separation instead of
	// the full SeparationFloor — but keep the per-round spread stats.
	ch.th = r.Stats()
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
	// The Trojan runs for the spy's whole window.
	res, err := attack.RunLoop(ch.c, ch.recvEntry, sender, PrimeIters+ch.cfg.ProbeIters)
	if err != nil {
		return 0, fmt.Errorf("channel: SMT spy window: %w", err)
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
