// Package decode models the legacy decode pipeline (Intel's MITE): the
// predecoder with its length-changing-prefix stalls, macro-op fusion,
// the 1:1 and 1:4 decoders, and the microcode sequencer (MSROM). It
// both expands macro-ops into executable micro-ops and produces the
// per-cycle delivery schedule whose variable latency is the timing
// signal the micro-op cache channel modulates. The decoder counts,
// MSROM rate, LCP stall and predecode window every modelled part shares
// are package constants; Config holds only what the parts
// (internal/profile) vary.
package decode

import (
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// The legacy-pipeline facts every modelled part shares.
const (
	// SimpleDecoders is the number of 1:1 decoders; one further
	// complex decoder handles every multi-µop macro-op short of the
	// MSROM. Every part shares this Skylake-style arrangement: Zen's
	// four 1:2 decoders are a documented deviation, not modelled (see
	// DESIGN.md's AMD Zen row).
	SimpleDecoders = 4
	// MSROMWidth is the microcode sequencer's delivery rate per cycle;
	// while the MSROM streams, the decoders are blocked.
	MSROMWidth = 4
	// LCPPenalty is the predecoder stall per length-changing prefix
	// (3-6 cycles on Skylake; we model the documented minimum).
	LCPPenalty = 3
	// PredecodeWindow is the fetch-buffer width in bytes.
	PredecodeWindow = 16
)

// Config parameterizes the decode pipeline. Compare+branch pairs
// always macro-fuse.
type Config struct {
	// DecodeWidth caps micro-ops delivered per cycle from the
	// decoders (5 on Skylake).
	DecodeWidth int
	// JccAlignPenalty is the predecoder stall charged when a
	// conditional jump's bytes straddle a PredecodeWindow boundary: the
	// branch's last byte lands in the next fetch buffer, so the
	// predecoder cannot mark the branch until that buffer arrives and
	// the steering logic replays the window (the effect the Frontal
	// attack and "On Abnormal Execution Timing of Conditional Jump
	// Instructions" time on real Intel parts). Zero disables the model
	// (AMD's aligned-fetch frontend does not exhibit it). Like the LCP
	// penalty, the stall is MITE-only: a trace streamed from the
	// micro-op cache never touches the predecoder, which is exactly
	// what makes the alignment of a secret-dependent jump observable
	// through DSB hit/miss timing.
	JccAlignPenalty int
}

// Skylake returns the Skylake decode configuration — the default
// machine's; the other parts are defined in internal/profile.
func Skylake() Config {
	return Config{
		DecodeWidth:     5,
		JccAlignPenalty: 2,
	}
}

// Expand decodes one macro-op into its micro-ops, carrying execution
// operands and micro-op cache slot costs.
func Expand(in *isa.Inst) []isa.Uop {
	n := in.Uops()
	uops := make([]isa.Uop, n)
	for i := range uops {
		u := &uops[i]
		u.Op = in.Op
		u.Index = uint8(i)
		u.Count = uint8(n)
		u.MacroAddr = in.Addr
		u.MacroLen = in.Len
		u.Slots = 1
		u.Dst = in.Dst
		u.Src = in.Src
		u.Imm = in.Imm
		u.Cond = in.Cond
		u.HasImm = in.HasImm
		if in.Microcoded() {
			u.Path = isa.PathMSROM
		}
		u.BranchPC = in.Addr
	}
	if in.Imm64 && n > 0 {
		// A 64-bit immediate consumes two micro-op slots.
		uops[0].Slots = 2
	}
	return uops
}

// fuse merges a CMP/TEST micro-op with the JCC that follows it into a
// single macro-fused micro-op. The fused micro-op carries the compare
// operands in the Fused* fields and the branch semantics in the main
// fields; it occupies one slot (§II-A).
func fuse(cmp, jcc *isa.Uop) isa.Uop {
	f := *jcc
	f.Fused = true
	f.FusedOp = cmp.Op
	f.Dst = cmp.Dst
	f.FusedSrc = cmp.Src
	f.FusedImm = cmp.Imm
	f.FusedHasImm = cmp.HasImm
	// The fused micro-op represents both macro-ops; it keeps the
	// compare's address so sequential streaming covers both, and the
	// combined length so fall-through lands after the branch.
	f.MacroAddr = cmp.MacroAddr
	f.MacroLen = uint8(jcc.MacroAddr + uint64(jcc.MacroLen) - cmp.MacroAddr)
	return f
}

// fusible reports whether a and b (adjacent macro-ops) macro-fuse.
func fusible(a, b *isa.Inst) bool {
	if a.Op != isa.CMP && a.Op != isa.TEST {
		return false
	}
	return b.Op == isa.JCC && a.End() == b.Addr
}

// RegionPlan is the decode schedule for the macro-ops of one code
// region when delivered by the legacy pipeline, plus the built
// macro-op groups the micro-op cache fill consumes.
type RegionPlan struct {
	// Slots holds one entry per decode cycle; empty entries are stall
	// cycles (LCP or predecode).
	Slots [][]isa.Uop
	// Macros are the decoded macro-op groups in order, for BuildTrace.
	Macros []uopcache.MacroUops
	// MITEUops/MSROMUops split delivery counts by source.
	MITEUops  int
	MSROMUops int
	// LCPStalls counts stall cycles charged to length-changing
	// prefixes.
	LCPStalls int
	// AlignStalls counts stall cycles charged to conditional jumps
	// whose bytes straddle a predecode-window boundary (see
	// Config.JccAlignPenalty); AlignJccs counts the straddling jumps
	// themselves.
	AlignStalls int
	AlignJccs   int
}

// TotalUops returns the micro-op count of the plan.
func (p *RegionPlan) TotalUops() int { return p.MITEUops + p.MSROMUops }

// Cycles returns the number of decode cycles the plan occupies.
func (p *RegionPlan) Cycles() int { return len(p.Slots) }

// JccStraddles reports whether in is a conditional jump whose encoded
// bytes cross a predecode-window boundary — the alignment that makes
// the legacy pipeline charge Config.JccAlignPenalty for it. A jump
// whose first byte is the last byte of a window straddles; one starting
// exactly on a boundary does not (its bytes sit wholly inside the new
// window).
func JccStraddles(cfg Config, in *isa.Inst) bool {
	if in.Op != isa.JCC || cfg.JccAlignPenalty <= 0 {
		return false
	}
	return in.Addr/PredecodeWindow != (in.End()-1)/PredecodeWindow
}

// PlanRegion produces the legacy-decode schedule for insts, the
// in-order macro-ops of one region fetch (ending at the region's last
// instruction or its first unconditional jump).
func PlanRegion(cfg Config, insts []*isa.Inst) *RegionPlan {
	p := &RegionPlan{}
	if len(insts) == 0 {
		return p
	}

	// Predecode: extracting macro-ops from the fetch buffer costs one
	// cycle per PredecodeWindow bytes; each LCP stalls LCPPenalty
	// cycles. These appear as empty slots at the front (the decode
	// pipeline is idle while the predecoder refills the macro-op
	// queue). A real pipeline overlaps these stages; the model charges
	// them serially, which preserves the miss-penalty contract.
	bytes := 0
	for _, in := range insts {
		bytes += int(in.Len)
		if in.LCP {
			p.LCPStalls += LCPPenalty
		}
		if JccStraddles(cfg, in) {
			p.AlignJccs++
			p.AlignStalls += cfg.JccAlignPenalty
		}
	}
	preCycles := (bytes+PredecodeWindow-1)/PredecodeWindow + p.LCPStalls + p.AlignStalls
	// Pre-size the schedule: at most one decode slot per macro-op on
	// top of the predecode stalls.
	p.Slots = make([][]isa.Uop, 0, preCycles+len(insts))
	for i := 0; i < preCycles; i++ {
		p.Slots = append(p.Slots, nil)
	}

	// Expand with macro-fusion.
	type macro struct {
		uops  []isa.Uop
		inst  *isa.Inst
		fused bool
	}
	macros := make([]macro, 0, len(insts))
	for i := 0; i < len(insts); i++ {
		in := insts[i]
		if i+1 < len(insts) && fusible(in, insts[i+1]) {
			cu := Expand(in)
			ju := Expand(insts[i+1])
			macros = append(macros, macro{
				uops:  []isa.Uop{fuse(&cu[0], &ju[0])},
				inst:  insts[i+1], // branch macro-op carries the pair
				fused: true,
			})
			i++
			continue
		}
		macros = append(macros, macro{uops: Expand(in), inst: in})
	}

	// Decode: per cycle up to DecodeWidth micro-ops from at most
	// 1 complex + SimpleDecoders simple macro-ops; microcoded
	// macro-ops stream exclusively from the MSROM at MSROMWidth/cycle.
	var cur []isa.Uop
	curMacros := 0
	usedComplex := false
	flush := func() {
		if len(cur) > 0 {
			p.Slots = append(p.Slots, cur)
		}
		cur = nil
		curMacros = 0
		usedComplex = false
	}
	for mi := range macros {
		m := &macros[mi]
		if m.inst.Microcoded() {
			flush()
			for off := 0; off < len(m.uops); off += MSROMWidth {
				end := off + MSROMWidth
				if end > len(m.uops) {
					end = len(m.uops)
				}
				slot := make([]isa.Uop, end-off)
				copy(slot, m.uops[off:end])
				p.Slots = append(p.Slots, slot)
				p.MSROMUops += end - off
			}
			continue
		}
		complexOp := len(m.uops) > 1
		if complexOp && usedComplex ||
			curMacros >= SimpleDecoders+1 ||
			len(cur)+len(m.uops) > cfg.DecodeWidth {
			flush()
		}
		cur = append(cur, m.uops...)
		curMacros++
		if complexOp {
			usedComplex = true
		}
		p.MITEUops += len(m.uops)
	}
	flush()

	// Macro groups for the micro-op cache fill.
	p.Macros = make([]uopcache.MacroUops, 0, len(macros))
	for mi := range macros {
		m := &macros[mi]
		p.Macros = append(p.Macros, uopcache.MacroUops{
			Addr:        m.uops[0].MacroAddr,
			Len:         m.uops[0].MacroLen,
			Uops:        m.uops,
			Microcoded:  m.inst.Microcoded(),
			Uncacheable: m.inst.Op == isa.PAUSE,
			UncondJump:  m.inst.IsUncondJump(),
			Branch:      m.inst.IsBranch(),
		})
	}
	return p
}
