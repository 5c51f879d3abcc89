package frontend

import (
	"deaduops/internal/asm"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// Decoded is what one MITE refill of a fetch group builds: the
// legacy-decode schedule the fetch engine delivers slot by slot and the
// trace it then installs in the micro-op cache. Both are read-only once
// built: delivery copies micro-ops out of the plan's slots and out of
// a hit trace's µops, and the cache's lines point at the trace.
type Decoded struct {
	Plan  *decode.RegionPlan
	Trace *uopcache.Trace
}

// memoKey names a fetch group. A group is the run of consecutive
// instructions from its entry address, so under one code image its
// entry and length fix its instructions, and with them its plan and
// trace.
type memoKey struct {
	entry uint64
	n     int
}

// Memo is one core's decode memo, shared by both hardware threads'
// fetch engines: every fetch group a MITE refill has decoded, keyed by
// entry address and instruction count. Code is immutable once loaded,
// so a refill of a group decoded before reuses its plan and trace
// instead of planning, expanding and rebuilding them again. The memo
// belongs to one code image and empties when a fetch engine installs
// another; micro-op cache evictions and flushes drop cached lines, not
// code, so they leave it alone.
type Memo struct {
	dec  decode.Config
	uc   uopcache.Config
	prog *asm.Program
	m    map[memoKey]Decoded
}

// NewMemo returns an empty memo for fetch engines that decode under
// dec and fill a micro-op cache configured as uc.
func NewMemo(dec decode.Config, uc uopcache.Config) *Memo {
	return &Memo{dec: dec, uc: uc, m: make(map[memoKey]Decoded)}
}

// bind ties the memo to prog, emptying it if it held another image's
// groups.
func (m *Memo) bind(prog *asm.Program) {
	if prog != m.prog {
		clear(m.m)
		m.prog = prog
	}
}

// decode returns the plan and trace of the fetch group insts entered at
// entry under prog, building them on first use.
func (m *Memo) decode(prog *asm.Program, entry uint64, insts []*isa.Inst) Decoded {
	m.bind(prog)
	k := memoKey{entry: entry, n: len(insts)}
	if d, ok := m.m[k]; ok {
		return d
	}
	plan := decode.PlanRegion(m.dec, insts)
	region := entry &^ (m.uc.RegionSize() - 1)
	d := Decoded{Plan: plan, Trace: uopcache.BuildTrace(m.uc, region, uint8(entry-region), plan.Macros)}
	m.m[k] = d
	return d
}

// Program returns the code image the memoized groups belong to.
func (m *Memo) Program() *asm.Program { return m.prog }

// Len returns the number of memoized fetch groups.
func (m *Memo) Len() int { return len(m.m) }

// Each calls fn for every memoized fetch group, in no particular
// order, with its entry address and instruction count.
func (m *Memo) Each(fn func(entry uint64, n int, d Decoded)) {
	for k, d := range m.m {
		fn(k.entry, k.n, d)
	}
}
