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
	Uops     []isa.Uop
	Slots    int
	Branches int
	// MSROM marks a line consumed entirely by a microcoded macro-op.
	MSROM bool
}

// Trace is the result of applying the placement rules (§II-B) to the
// decoded macro-ops of one 32-byte code region, entered at a given
// offset. A non-cacheable trace records why.
type Trace struct {
	Region    uint64
	Entry     uint8
	Lines     []LineUops
	Cacheable bool
	// Reason explains a non-cacheable result ("too-many-lines",
	// "uncacheable-op").
	Reason string
	// TotalUops is the µop count across lines.
	TotalUops int
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
	t := &Trace{Region: region, Entry: entry, Cacheable: true}
	if cfg.Disabled {
		t.Cacheable = false
		t.Reason = "dsb-disabled"
		return t
	}
	if len(macros) == 0 {
		t.Cacheable = false
		t.Reason = "empty"
		return t
	}

	var cur LineUops
	closeLine := func() {
		if len(cur.Uops) > 0 || cur.MSROM {
			t.Lines = append(t.Lines, cur)
		}
		cur = LineUops{}
	}

	for mi := range macros {
		m := &macros[mi]
		if m.Uncacheable {
			t.Cacheable = false
			t.Reason = "uncacheable-op"
			t.Lines = nil
			return t
		}
		if m.Microcoded {
			// MSROM micro-ops consume an entire line of their own.
			closeLine()
			msLine := LineUops{MSROM: true, Slots: cfg.SlotsPerLine}
			msLine.Uops = append(msLine.Uops, m.Uops...)
			if m.Branch {
				msLine.Branches = 1
			}
			t.Lines = append(t.Lines, msLine)
			t.TotalUops += len(m.Uops)
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
			t.Cacheable = false
			t.Reason = "macro-op-too-wide"
			t.Lines = nil
			return t
		}
		if cur.Slots+slots > cfg.SlotsPerLine ||
			cur.Branches+branches > MaxBranchesPerLine ||
			cur.MSROM {
			closeLine()
		}
		cur.Uops = append(cur.Uops, m.Uops...)
		cur.Slots += slots
		cur.Branches += branches
		t.TotalUops += len(m.Uops)
		if m.UncondJump {
			// An unconditional jump terminates the line (and, by
			// construction of macros, the trace).
			closeLine()
		}
	}
	closeLine()

	if len(t.Lines) > MaxLinesPerRegion {
		t.Cacheable = false
		t.Reason = "too-many-lines"
		t.Lines = nil
		return t
	}
	return t
}
