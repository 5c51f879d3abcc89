// Package perfctr provides the performance-counter events the
// characterization study reads. The names mirror the Intel events
// nanoBench exposes (IDQ.DSB_UOPS, IDQ.MITE_UOPS, DSB2MITE_SWITCHES.*,
// LONGEST_LAT_CACHE.*), so the experiment code reads like the paper.
package perfctr

import "fmt"

// Event identifies one counter.
type Event int

// Counter events.
const (
	// Cycles is the core clock.
	Cycles Event = iota
	// Instructions counts retired macro-ops.
	Instructions
	// UopsRetired counts retired micro-ops.
	UopsRetired
	// DSBUops counts micro-ops delivered to the IDQ from the micro-op
	// cache (IDQ.DSB_UOPS).
	DSBUops
	// MITEUops counts micro-ops delivered from the legacy decode
	// pipeline (IDQ.MITE_UOPS).
	MITEUops
	// MSROMUops counts micro-ops delivered by the microcode sequencer
	// (IDQ.MS_UOPS).
	MSROMUops
	// DSB2MITESwitches counts DSB→MITE transitions.
	DSB2MITESwitches
	// DSBMissPenaltyCycles counts cycles lost to DSB misses: the
	// switch penalty plus legacy-decode stall cycles
	// (DSB2MITE_SWITCHES.PENALTY_CYCLES analogue).
	DSBMissPenaltyCycles
	// LCPStallCycles counts predecoder stalls from length-changing
	// prefixes (ILD_STALL.LCP).
	LCPStallCycles
	// JccAlignStallCycles counts predecoder stalls charged to
	// conditional jumps straddling a predecode-window boundary (the
	// Frontal-attack timing effect; no documented Intel event, named
	// as an ILD_STALL analogue).
	JccAlignStallCycles
	// L1IMisses, L2Misses count instruction-side misses.
	L1IMisses
	L2Misses
	// LLCRefs and LLCMisses mirror LONGEST_LAT_CACHE.REFERENCE/MISS.
	LLCRefs
	LLCMisses
	// BranchMispredicts counts resolved mispredictions; Squashes
	// counts pipeline flushes.
	BranchMispredicts
	Squashes
	// LSDUops counts micro-ops replayed by the loop stream detector
	// (LSD.UOPS) — zero on the default Skylake model, where the LSD is
	// disabled per erratum SKL150.
	LSDUops
	// IDQStallCycles counts cycles the IDQ delivered nothing.
	IDQStallCycles
	// SkippedCycles counts clock cycles the simulator advanced in one
	// step through the event-driven fast path instead of ticking each
	// unit. Skipped cycles are still charged to Cycles (and to any
	// stall counter that would have ticked); this event only makes the
	// fast path auditable. It has no hardware analogue.
	SkippedCycles

	// NumEvents is the number of defined events. The benchmark module
	// digests every event up to NumEvents into its seed-1 goldens, so
	// adding, removing or reordering an event changes benchmark data.
	NumEvents
)

var eventNames = [NumEvents]string{
	Cycles:               "cycles",
	Instructions:         "instructions",
	UopsRetired:          "uops_retired",
	DSBUops:              "idq.dsb_uops",
	MITEUops:             "idq.mite_uops",
	MSROMUops:            "idq.ms_uops",
	DSB2MITESwitches:     "dsb2mite_switches.count",
	DSBMissPenaltyCycles: "dsb2mite_switches.penalty_cycles",
	LCPStallCycles:       "ild_stall.lcp",
	JccAlignStallCycles:  "ild_stall.jcc_align",
	L1IMisses:            "icache.misses",
	L2Misses:             "l2.inst_misses",
	LLCRefs:              "longest_lat_cache.reference",
	LLCMisses:            "longest_lat_cache.miss",
	BranchMispredicts:    "br_misp_retired",
	Squashes:             "machine_clears",
	LSDUops:              "lsd.uops",
	IDQStallCycles:       "idq.stall_cycles",
	SkippedCycles:        "sim.skipped_cycles",
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if e >= 0 && e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Counters is one hardware thread's counter file.
type Counters struct {
	v [NumEvents]uint64
}

// Add increments event e by n.
func (c *Counters) Add(e Event, n uint64) { c.v[e] += n }

// Inc increments event e by one.
func (c *Counters) Inc(e Event) { c.v[e]++ }

// Get returns the value of event e.
func (c *Counters) Get(e Event) uint64 { return c.v[e] }

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	s.v = c.v
	return s
}

// Reset zeroes all counters.
func (c *Counters) Reset() { c.v = [NumEvents]uint64{} }

// Restore overwrites the counter file with a previously taken
// snapshot (checkpoint rehydration).
func (c *Counters) Restore(s Snapshot) { c.v = s.v }

// Snapshot is an immutable copy of a counter file.
type Snapshot struct {
	v [NumEvents]uint64
}

// Get returns the value of event e.
func (s Snapshot) Get(e Event) uint64 { return s.v[e] }

// Delta returns s - earlier, element-wise.
func (s Snapshot) Delta(earlier Snapshot) Snapshot {
	var d Snapshot
	for i := range s.v {
		d.v[i] = s.v[i] - earlier.v[i]
	}
	return d
}

// String renders the nonzero counters.
func (s Snapshot) String() string {
	out := ""
	for e := Event(0); e < NumEvents; e++ {
		if s.v[e] != 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", e, s.v[e])
		}
	}
	return out
}
