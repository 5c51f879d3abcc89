package main

import (
	"deaduops/internal/cpu"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"
)

// coreSnap is every public counter of one simulated core at one
// moment.
type coreSnap struct {
	ctr  [cpu.NumThreads]perfctr.Snapshot
	uc   uopcache.Stats
	hier mem.HierarchyStats
}

func snapCore(c *cpu.CPU) coreSnap {
	var s coreSnap
	for t := range s.ctr {
		s.ctr[t] = c.Counters(t).Snapshot()
	}
	s.uc = c.UopCache().Stats()
	s.hier = c.Hierarchy().Stats()
	return s
}

// simCounters sums simulated counter deltas over the ops of the
// untimed counter pass. The simulator is deterministic, so for a given
// workload, seed and op count every field repeats exactly; a change
// that only speeds the simulator up must leave all of them identical.
type simCounters struct {
	ops     int
	events  [perfctr.NumEvents]uint64 // summed over both threads
	lookups uint64
	hits    uint64
	fills   uint64
	evicts  uint64
	l1i     uint64
	l1d     uint64
	llc     uint64
}

// add accumulates the counter movement between two snapshots of one
// core.
func (s *simCounters) add(before, after coreSnap) {
	for t := range after.ctr {
		d := after.ctr[t].Delta(before.ctr[t])
		for e := perfctr.Event(0); e < perfctr.NumEvents; e++ {
			s.events[e] += d.Get(e)
		}
	}
	s.lookups += after.uc.Lookups - before.uc.Lookups
	s.hits += after.uc.Hits - before.uc.Hits
	s.fills += after.uc.Fills - before.uc.Fills
	s.evicts += after.uc.Evictions - before.uc.Evictions
	s.l1i += after.hier.L1I.Misses - before.hier.L1I.Misses
	s.l1d += after.hier.L1D.Misses - before.hier.L1D.Misses
	s.llc += after.hier.LLCMisses - before.hier.LLCMisses
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report writes the counter metrics. Cycles are thread-cycles: an SMT
// run charges each live thread every cycle.
func (s *simCounters) report(m map[string]float64) {
	ops := uint64(s.ops)
	ev := s.events
	delivered := ev[perfctr.DSBUops] + ev[perfctr.MITEUops] + ev[perfctr.MSROMUops] + ev[perfctr.LSDUops]
	m["perfctr.cycles_per_op"] = ratio(ev[perfctr.Cycles], ops)
	m["perfctr.retired_per_op"] = ratio(ev[perfctr.Instructions], ops)
	m["perfctr.dsb_uop_share"] = ratio(ev[perfctr.DSBUops], delivered)
	m["perfctr.mite_uop_share"] = ratio(ev[perfctr.MITEUops], delivered)
	m["perfctr.msrom_uop_share"] = ratio(ev[perfctr.MSROMUops], delivered)
	m["perfctr.dsb2mite_switches_per_op"] = ratio(ev[perfctr.DSB2MITESwitches], ops)
	m["perfctr.skipped_cycle_share"] = ratio(ev[perfctr.SkippedCycles], ev[perfctr.Cycles])
	m["uopcache.hit_ratio"] = ratio(s.hits, s.lookups)
	m["uopcache.fills_per_op"] = ratio(s.fills, ops)
	m["uopcache.evictions_per_op"] = ratio(s.evicts, ops)
	m["mem.l1i_misses_per_op"] = ratio(s.l1i, ops)
	m["mem.l1d_misses_per_op"] = ratio(s.l1d, ops)
	m["mem.llc_misses_per_op"] = ratio(s.llc, ops)
}
