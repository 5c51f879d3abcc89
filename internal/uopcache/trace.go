package uopcache

import "deaduops/internal/isa"

// MacroUops is one decoded macro-op handed to the trace builder: its
// micro-ops plus the composition facts the placement rules consult.
type MacroUops struct {
	Addr       uint64
	Len        uint8
	Uops       []isa.Uop
	Microcoded bool // delivered by the MSROM
	// Uncacheable marks macro-ops the micro-op cache refuses to hold
	// (the paper finds PAUSE is never cached).
	Uncacheable bool
	UncondJump  bool
	Branch      bool
}

// LineUops is one would-be cache line of a built trace.
type LineUops struct {
	// Uops is the line's run of its trace's Uops, capped so that an
	// append never writes into the next line.
	Uops     []isa.Uop
	Slots    int
	Branches int
	// MSROM marks a line consumed entirely by a microcoded macro-op.
	MSROM bool
}

// Trace is the result of applying the placement rules (§II-B) to the
// decoded macro-ops of one 32-byte code region, entered at a given
// offset. A non-cacheable trace records why and holds no µops. A
// trace is read-only once built: the micro-op cache's lines point at
// it and a hit streams its Uops.
type Trace struct {
	Region uint64
	Entry  uint8
	// Uops holds every line's µops in line order; each line's Uops is
	// a subslice of it.
	Uops      []isa.Uop
	Lines     []LineUops
	Cacheable bool
	// Reason explains a non-cacheable result ("too-many-lines",
	// "uncacheable-op").
	Reason string
}

// BuildTrace applies the placement rules to macro-ops of one region:
//
//   - a region may occupy at most MaxLinesPerRegion ways (18 µops on
//     Skylake); beyond that the region is not cached at all;
//   - micro-ops of one macro-op never span a line boundary;
//   - micro-ops from the MSROM consume an entire line;
//   - an unconditional jump is always the last micro-op of its line;
//   - a line holds at most MaxBranchesPerLine branch micro-ops;
//   - a 64-bit immediate occupies two slots (carried in Uop.Slots).
//
// macros must be the in-order decoded macro-ops starting at
// region+entry and ending at the region's last instruction or its
// first unconditional jump, whichever is earlier.
func BuildTrace(cfg Config, region uint64, entry uint8, macros []MacroUops) *Trace {
	t := &Trace{Region: region, Entry: entry}
	fail := func(reason string) *Trace {
		t.Uops, t.Lines, t.Reason = nil, nil, reason
		return t
	}
	if cfg.Disabled {
		return fail("dsb-disabled")
	}
	if len(macros) == 0 {
		return fail("empty")
	}

	// Size Uops up front so it never moves: the lines slice into it as
	// they close.
	n := 0
	for mi := range macros {
		n += len(macros[mi].Uops)
	}
	t.Uops = make([]isa.Uop, 0, n)
	var cur LineUops
	start := 0
	closeLine := func() {
		if end := len(t.Uops); end > start || cur.MSROM {
			cur.Uops = t.Uops[start:end:end]
			t.Lines = append(t.Lines, cur)
		}
		cur, start = LineUops{}, len(t.Uops)
	}

	for mi := range macros {
		m := &macros[mi]
		if m.Uncacheable {
			return fail("uncacheable-op")
		}
		if m.Microcoded {
			// MSROM micro-ops consume an entire line of their own.
			closeLine()
			cur = LineUops{MSROM: true, Slots: cfg.SlotsPerLine}
			if m.Branch {
				cur.Branches = 1
			}
			t.Uops = append(t.Uops, m.Uops...)
			closeLine()
			continue
		}
		slots := 0
		branches := 0
		for i := range m.Uops {
			slots += int(m.Uops[i].Slots)
			if m.Uops[i].IsBranch() {
				branches++
			}
		}
		if slots > cfg.SlotsPerLine {
			// A non-microcoded macro-op that cannot fit any line makes
			// the region uncacheable.
			return fail("macro-op-too-wide")
		}
		if cur.Slots+slots > cfg.SlotsPerLine ||
			cur.Branches+branches > MaxBranchesPerLine {
			closeLine()
		}
		t.Uops = append(t.Uops, m.Uops...)
		cur.Slots += slots
		cur.Branches += branches
		if m.UncondJump {
			// An unconditional jump terminates the line (and, by
			// construction of macros, the trace).
			closeLine()
		}
	}
	closeLine()

	if len(t.Lines) > MaxLinesPerRegion {
		return fail("too-many-lines")
	}
	t.Cacheable = true
	return t
}
