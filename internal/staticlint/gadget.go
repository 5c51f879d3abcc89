package staticlint

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// GadgetKind classifies a transient-gadget finding (the two classes of
// the paper's §VI-A census).
type GadgetKind int

// Gadget classes.
const (
	// GadgetUopCache is the variant-1 class: a guarded load whose
	// result reaches a conditional or indirect branch. The branch's
	// fetch footprint is the disclosure — no second access needed,
	// which is why the paper counts 5× more of these than Spectre-v1.
	GadgetUopCache GadgetKind = iota
	// GadgetSpectreV1 is the classic class: a guarded load whose
	// result feeds the address of a second load.
	GadgetSpectreV1
)

// String implements fmt.Stringer.
func (k GadgetKind) String() string {
	if k == GadgetUopCache {
		return "uop-cache"
	}
	return "spectre-v1"
}

// GadgetHit is one transient-gadget detection: the bypassable guard,
// the guarded load that sources the taint, and the disclosing sink.
// LoadFunc/SinkFunc attribute the load and sink to their owning
// functions' entry addresses (zero when unattributed); CrossFunction
// marks gadgets whose two halves live in different functions — the
// interprocedural shape the census would miss with a call-bounded
// window.
type GadgetHit struct {
	Kind          GadgetKind
	Guard         uint64
	Load          uint64
	Sink          uint64
	LoadFunc      uint64
	SinkFunc      uint64
	CrossFunction bool
}

// gadgetWindow bounds the transient window of the gadget checkers, in
// macro-ops past the guard.
const gadgetWindow = 24

// maxGadgetCallDepth bounds how many nested direct calls the transient
// window follows: the return stack predictor keeps speculative fetch
// on call/return rails for shallow nests, but a deep chain exhausts
// the window anyway.
const maxGadgetCallDepth = 4

// scanGadgets runs the transient-window gadget analysis over every
// conditional branch of the program, treating each as a potentially
// bypassed guard. The walk runs the dataflow engine's transfer
// function, so taint dies on overwrite (MOVI, MOV from a clean
// register, xor/sub zeroing idioms, RDTSC) and flows through resolved
// memory cells; direct calls and their returns are followed, so a
// gadget whose load and transmit halves live in different functions is
// still counted — and attributed to both. scanGuard mints its own load
// sources, so the scan runs on a scratch analysis that shares this
// one's CFG and function partition but has no secret spec and a source
// table of its own.
func (a *Analysis) scanGadgets() []GadgetHit {
	s := &Analysis{Prog: a.Prog, CFG: a.CFG, Cfg: a.Cfg, funcs: a.funcs, funcOf: a.funcOf}
	var out []GadgetHit
	for _, in := range a.Prog.Insts {
		if in.Op == isa.JCC {
			out = append(out, s.scanGuard(in)...)
		}
	}
	return out
}

// funcEntryOf returns the entry address of the function owning addr,
// or 0 when unattributed.
func (a *Analysis) funcEntryOf(addr uint64) uint64 {
	b := a.CFG.BlockOf(addr)
	if b == nil || a.funcOf == nil || a.funcOf[b.Index] < 0 {
		return 0
	}
	return a.funcs[a.funcOf[b.Index]].Entry
}

// scanGuard walks the transient window past one guard: straight-line
// fetch through direct jumps, into direct calls and back out through
// their returns (bounded by maxGadgetCallDepth). Every load in the
// window mints a fresh taint source (its result is attacker-reachable
// once the guard is bypassed); sinks are dependent conditional/
// indirect branches (µop-cache class) and dependent load addresses
// (Spectre-v1 class). Each (source, class) pair reports once,
// mirroring the census semantics.
func (a *Analysis) scanGuard(guard *isa.Inst) []GadgetHit {
	var out []GadgetHit
	st := &State{}
	a.sources = nil
	hook := func(in *isa.Inst) taintSet {
		return a.addSource(Source{Kind: SrcLoad, Addr: in.Addr})
	}
	seen := map[GadgetKind]map[int]bool{
		GadgetUopCache:  {},
		GadgetSpectreV1: {},
	}
	report := func(kind GadgetKind, set taintSet, sink uint64) {
		for i, s := range a.sources {
			if s.Kind != SrcLoad || set&bitFor(i) == 0 || seen[kind][i] {
				continue
			}
			seen[kind][i] = true
			lf, sf := a.funcEntryOf(s.Addr), a.funcEntryOf(sink)
			out = append(out, GadgetHit{
				Kind: kind, Guard: guard.Addr, Load: s.Addr, Sink: sink,
				LoadFunc: lf, SinkFunc: sf,
				CrossFunction: lf != 0 && sf != 0 && lf != sf,
			})
		}
	}

	var retStack []uint64
	pc := guard.End()
	for step := 0; step < gadgetWindow; step++ {
		in := a.Prog.At(pc)
		if in == nil {
			break
		}
		switch in.Op {
		case isa.LOAD, isa.LOADB:
			// A tainted address feeding this load is the classic
			// double-load disclosure; check before the transfer mints
			// the load's own source.
			report(GadgetSpectreV1, st.Regs[in.Src&0x0F], in.Addr)
		case isa.JCC:
			report(GadgetUopCache, st.Flags, in.Addr)
		case isa.JMPI, isa.CALLI:
			report(GadgetUopCache, st.Regs[in.Dst&0x0F], in.Addr)
			return out
		case isa.CALL:
			// Speculative fetch follows the call; the window continues
			// inside the callee and resumes at the return site on RET.
			if len(retStack) >= maxGadgetCallDepth || a.Prog.At(uint64(in.Imm)) == nil {
				return out
			}
			a.step(st, in, hook)
			retStack = append(retStack, in.End())
			pc = uint64(in.Imm)
			continue
		case isa.RET:
			if len(retStack) == 0 {
				return out
			}
			a.step(st, in, hook)
			pc = retStack[len(retStack)-1]
			retStack = retStack[:len(retStack)-1]
			continue
		case isa.JMP, isa.HALT, isa.SYSCALL, isa.SYSRET:
			// Control leaves the window.
			return out
		}
		a.step(st, in, hook)
		pc = in.End()
	}
	return out
}

// UopCacheGadgetChecker reports the µop-cache gadget class through the
// checker interface.
type UopCacheGadgetChecker struct{}

// Name implements Checker.
func (UopCacheGadgetChecker) Name() string { return "uop-cache-gadget" }

// Check implements Checker.
func (c UopCacheGadgetChecker) Check(a *Analysis) []Finding {
	return gadgetFindings(a, GadgetUopCache, c.Name(), SevError)
}

// SpectreV1Checker reports the classic double-load class through the
// checker interface.
type SpectreV1Checker struct{}

// Name implements Checker.
func (SpectreV1Checker) Name() string { return "spectre-v1-gadget" }

// Check implements Checker.
func (c SpectreV1Checker) Check(a *Analysis) []Finding {
	return gadgetFindings(a, GadgetSpectreV1, c.Name(), SevWarning)
}

func gadgetFindings(a *Analysis, kind GadgetKind, name string, sev Severity) []Finding {
	var out []Finding
	for _, h := range a.gadgets {
		if h.Kind != kind {
			continue
		}
		msg := fmt.Sprintf(
			"%s gadget: guard %#x → guarded load %#x → sink %#x", kind, h.Guard, h.Load, h.Sink)
		if h.CrossFunction {
			msg += fmt.Sprintf("; load in %s, sink in %s (cross-function)",
				funcName(a.Prog, h.LoadFunc), funcName(a.Prog, h.SinkFunc))
		}
		out = append(out, Finding{
			Checker:  name,
			Severity: sev,
			Conf:     May,
			Addr:     h.Sink,
			Guard:    h.Guard,
			Load:     h.Load,
			Sink:     h.Sink,
			Message:  msg,
		})
	}
	return out
}

// funcName renders a function entry address symbolically when a label
// is bound to it.
func funcName(p *asm.Program, entry uint64) string {
	if l := p.LabelAt(entry); l != "" {
		return l
	}
	return fmt.Sprintf("%#x", entry)
}
