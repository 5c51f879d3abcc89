package uopcache

import (
	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// SetIndexOf returns the physical set index addr maps to in
// single-thread, unpartitioned operation (bits IndexLoBit and up of the
// region base address).
func (c Config) SetIndexOf(addr uint64) int {
	return int(addr>>IndexLoBit) & (c.Sets - 1)
}

// RegionFootprint is the predicted occupancy of one (region, entry)
// trace under the placement rules.
type RegionFootprint struct {
	Region uint64 // region base address
	Entry  uint8  // entry offset within the region
	Set    int    // physical set (single-thread mapping)
	Ways   int    // lines the trace occupies
	Uops   int    // micro-ops across those lines
	// Cacheable is false when the placement rules reject the region;
	// such code is delivered by MITE on every fetch, which is itself
	// observable through the DSB/MITE timing contract.
	Cacheable bool
	Reason    string // why, when !Cacheable
}

// FootprintResult is the static micro-op cache occupancy of a code
// range or path: which sets it fills and with how many ways.
type FootprintResult struct {
	Regions []RegionFootprint
	// Sets maps physical set index → total ways occupied there.
	Sets map[int]int
	// Uncacheable counts regions rejected by the placement rules.
	Uncacheable int
}

// Range is a half-open address interval [Start, End).
type Range struct {
	Start, End uint64
}

// Segment is one fetch segment of a code range: the in-order macro-ops
// of a single (region, entry) trace, exactly as the fetch engine would
// stream them before handing them to the decoders and the trace
// builder.
type Segment struct {
	Region uint64 // region base address
	Entry  uint8  // entry offset within the region
	Insts  []*isa.Inst
}

// SegmentRanges splits ranges into fetch segments the way the fetch
// engine does: a new segment begins at every region boundary, after
// every unconditional jump, and after every unmapped gap. A (region,
// entry) segment is returned once even if the ranges revisit it. The
// static analyzer (internal/staticlint) decodes every footprint and
// path cost from this segmentation, which is what keeps their region
// granularity identical to the simulator's.
func SegmentRanges(cfg Config, prog *asm.Program, ranges []Range) []Segment {
	var out []Segment
	regionSize := cfg.RegionSize()
	seen := make(map[[2]uint64]bool) // (region, entry) traces returned

	for _, r := range ranges {
		pc := r.Start
		for pc < r.End {
			in := prog.At(pc)
			if in == nil {
				// Unmapped gap: resume at the next mapped instruction
				// inside the range, which starts a fresh segment.
				pc = nextMapped(prog, pc, r.End)
				continue
			}
			region := pc &^ (regionSize - 1)
			regionEnd := region + regionSize
			segStart := pc

			// Collect the segment: sequential macro-ops until the range
			// or region ends, an unconditional jump terminates the
			// trace, or the image has a gap.
			var insts []*isa.Inst
			for pc < r.End && pc < regionEnd {
				in = prog.At(pc)
				if in == nil {
					break
				}
				insts = append(insts, in)
				pc = in.End()
				if in.IsUncondJump() {
					break
				}
			}
			if len(insts) == 0 {
				break
			}
			key := [2]uint64{region, segStart - region}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Segment{
				Region: region,
				Entry:  uint8(segStart - region),
				Insts:  insts,
			})
		}
	}
	return out
}

// nextMapped returns the address of the first mapped instruction in
// (pc, end), or end when none exists. Gaps come from asm.Org and are
// short in practice; the walk is bounded by the range.
func nextMapped(prog *asm.Program, pc, end uint64) uint64 {
	for a := pc + 1; a < end; a++ {
		if prog.At(a) != nil {
			return a
		}
	}
	return end
}
