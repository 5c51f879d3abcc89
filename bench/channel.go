package main

import (
	"crypto/sha256"
	"fmt"

	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

// mix derives a reproducible 64-bit value from the run seed, an input
// stream tag and an index (SplitMix64 over their combination), so each
// op's input depends only on (seed, op index) and not on scheduling.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (i + 1)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Input streams.
const (
	streamPayload uint64 = iota + 1
	streamWarmUp
	streamAudit
)

// channelSystem transmits one seeded byte per op over a covert channel
// on one persistent core.
type channelSystem struct {
	c        *cpu.CPU
	transmit func([]byte) ([]byte, channel.Result, error)
	seed     int64

	payload [1]byte
	d       digester
	// Counter-pass totals.
	counters simCounters
	sent     channel.Result
}

func setupChannelST(seed int64) (system, error) {
	c := cpu.New(cpu.Intel())
	ch, err := channel.NewSameAddressSpace(c, channel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &channelSystem{c: c, transmit: ch.Transmit, seed: seed}
	return s, s.warmUp(16)
}

func setupChannelSMT(seed int64) (system, error) {
	c := cpu.New(cpu.AMD())
	ch, err := channel.NewCrossSMT(c, channel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &channelSystem{c: c, transmit: ch.Transmit, seed: seed}
	return s, s.warmUp(4)
}

// warmUp sends n bytes from a stream the measured ops never use.
func (s *channelSystem) warmUp(n int) error {
	for i := 0; i < n; i++ {
		s.payload[0] = byte(mix(s.seed, streamWarmUp, uint64(i)))
		if _, _, err := s.transmit(s.payload[:]); err != nil {
			return fmt.Errorf("warm-up byte %d: %w", i, err)
		}
	}
	return nil
}

func (s *channelSystem) run(r *recorder) {
	for i := r.claim(); i >= 0; i = r.claim() {
		r.op(i, func(root int32) ([sha256.Size]byte, error) { return s.op(r, i, root) })
	}
}

func (s *channelSystem) op(r *recorder, i int, root int32) ([sha256.Size]byte, error) {
	sent := byte(mix(s.seed, streamPayload, uint64(i)))
	s.payload[0] = sent
	before := snapCore(s.c)
	clock := s.c.Cycle()
	sp := r.begin("channel.transmit", i, root)
	out, res, err := s.transmit(s.payload[:])
	r.end(sp)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	after := snapCore(s.c)
	cycles := s.c.Cycle() - clock
	r.cycles.Add(cycles)

	s.d.u64(uint64(sent), uint64(out[0]), cycles)
	for t := range after.ctr {
		d := after.ctr[t].Delta(before.ctr[t])
		for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
			s.d.u64(d.Get(e))
		}
	}
	digest := s.d.sum()

	// Conservation: the channel's cycle count, the core clock and the
	// receiving thread's cycle counter all measure the same interval.
	spy := after.ctr[0].Delta(before.ctr[0]).Get(perfctr.Cycles)
	if res.Bits != 8 || res.Cycles != cycles || spy != cycles {
		return digest, fmt.Errorf("op %d: %d bits over %d channel cycles, %d clock cycles, %d thread-0 cycles",
			i, res.Bits, res.Cycles, cycles, spy)
	}
	if r.counting {
		s.counters.add(before, after)
		s.counters.ops++
		s.sent.Bits += res.Bits
		s.sent.BitErrors += res.BitErrors
		s.sent.Cycles += res.Cycles
	}
	return digest, nil
}

func (s *channelSystem) spanMetrics(r *recorder, m map[string]float64) {
	m["channel.transmit_ms"] = median(r.spanMs("channel.transmit"))
}

func (s *channelSystem) counterMetrics(m map[string]float64) {
	s.counters.report(m)
	m["channel.sim_kbit_per_s"] = s.sent.BandwidthKbps()
	m["channel.bit_error_rate"] = s.sent.ErrorRate()
}

func (s *channelSystem) close() {}
