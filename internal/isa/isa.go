// Package isa defines SX86, a synthetic x86-like macro-op instruction set
// used by the front-end model. SX86 preserves the properties of real x86
// that the micro-op cache placement rules and the decode pipeline depend
// on: variable instruction length (1-15 bytes), length-changing prefixes,
// 64-bit immediates that occupy two micro-op slots, microcoded (MSROM)
// instructions, and macro-op fusion of compare+branch pairs.
package isa

import "fmt"

// Reg names an architectural general-purpose register. SX86 has 16 GPRs,
// mirroring x86-64.
type Reg uint8

// General-purpose register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// NumRegs is the number of architectural GPRs.
	NumRegs = 16
	// NoReg marks an unused register operand.
	NoReg Reg = 0xFF
)

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an SX86 macro-op opcode.
type Op uint8

// SX86 opcodes.
const (
	// NOP does nothing. Its encoded length is set by the assembler
	// (1-15 bytes), which is how the paper's microbenchmarks control
	// 32-byte-region composition.
	NOP Op = iota
	// MOVI loads a sign-extended immediate into Dst.
	MOVI
	// MOV copies Src into Dst.
	MOV
	// ADD, SUB, AND, OR, XOR, SHL, SHR are Dst = Dst op Src (or Imm if
	// HasImm).
	ADD
	SUB
	AND
	OR
	XOR
	SHL
	SHR
	// CMP compares Dst with Src/Imm and sets flags. TEST ands them.
	CMP
	TEST
	// JMP is an unconditional direct jump to Target.
	JMP
	// JCC is a conditional direct jump to Target, taken if Cond holds.
	JCC
	// JMPI is an indirect jump through Dst.
	JMPI
	// CALL pushes the return address and jumps to Target. CALLI is the
	// indirect form through Dst. RET pops and returns.
	CALL
	CALLI
	RET
	// LOAD reads 8 bytes at [Src+Imm] into Dst. LOADB reads one byte,
	// zero-extended. STORE writes Dst to [Src+Imm]; STOREB writes the
	// low byte.
	LOAD
	LOADB
	STORE
	STOREB
	// CLFLUSH evicts the data cache line containing [Src+Imm] from the
	// whole hierarchy (the paper's attacker uses clflush to open the
	// speculation window).
	CLFLUSH
	// LFENCE stalls dispatch of younger micro-ops until it retires.
	// Fetch continues — the property the variant-2 attack exploits.
	LFENCE
	// CPUID is fully serializing: fetch stops until it retires.
	CPUID
	// PAUSE hints spin-waiting. Per the paper's characterization, PAUSE
	// micro-ops are not cached in the micro-op cache.
	PAUSE
	// RDTSC reads the current cycle count into Dst.
	RDTSC
	// MSROMOP is a microcoded instruction expanding to UopCount
	// micro-ops (> 4) delivered by the MSROM.
	MSROMOP
	// SYSCALL transfers to the kernel entry point in supervisor mode;
	// SYSRET returns to user mode at the saved return address.
	SYSCALL
	SYSRET
	// ITLBFLUSH flushes the instruction TLB, which (by inclusion)
	// flushes the entire micro-op cache. Models an SGX-style domain
	// crossing. Supervisor-only.
	ITLBFLUSH
	// HALT stops the hardware thread.
	HALT

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", MOVI: "movi", MOV: "mov", ADD: "add", SUB: "sub",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	CMP: "cmp", TEST: "test", JMP: "jmp", JCC: "jcc", JMPI: "jmpi",
	CALL: "call", CALLI: "calli", RET: "ret",
	LOAD: "load", LOADB: "loadb", STORE: "store", STOREB: "storeb",
	CLFLUSH: "clflush", LFENCE: "lfence", CPUID: "cpuid",
	PAUSE: "pause", RDTSC: "rdtsc", MSROMOP: "msrom",
	SYSCALL: "syscall", SYSRET: "sysret", ITLBFLUSH: "itlbflush",
	HALT: "halt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is a condition code for JCC.
type Cond uint8

// Condition codes, evaluated against the flags set by CMP/TEST.
const (
	EQ Cond = iota // equal / zero
	NE             // not equal / nonzero
	LT             // signed less-than
	GE             // signed greater-or-equal
	GT             // signed greater-than
	LE             // signed less-or-equal
	B              // unsigned below
	AE             // unsigned above-or-equal
)

var condNames = [...]string{"eq", "ne", "lt", "ge", "gt", "le", "b", "ae"}

// String implements fmt.Stringer.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc(%d)", uint8(c))
}

// Flags is the architectural flags register.
type Flags struct {
	Zero  bool // result was zero
	Sign  bool // result was negative
	Carry bool // unsigned borrow out of a subtraction
}

// Eval reports whether the condition holds under f.
func (c Cond) Eval(f Flags) bool {
	switch c {
	case EQ:
		return f.Zero
	case NE:
		return !f.Zero
	case LT:
		return f.Sign
	case GE:
		return !f.Sign
	case GT:
		return !f.Sign && !f.Zero
	case LE:
		return f.Sign || f.Zero
	case B:
		return f.Carry
	case AE:
		return !f.Carry
	default:
		return false
	}
}

// Inst is one SX86 macro-op. The assembler fills Addr and Len; decode
// consults the composition fields (Len, LCP, Imm64, Microcoded) to model
// predecode and micro-op cache placement.
type Inst struct {
	Op   Op
	Dst  Reg
	Src  Reg
	Imm  int64
	Cond Cond

	// HasImm selects the immediate form of two-operand ALU ops.
	HasImm bool
	// Imm64 marks a 64-bit immediate, which occupies two micro-op
	// slots in a micro-op cache line.
	Imm64 bool
	// LCP marks a length-changing prefix: predecode of this macro-op
	// stalls the predecoder for decode.LCPPenalty cycles.
	LCP bool

	// Addr is the virtual address of the first byte; Len the encoded
	// length in bytes (1-15). Both are assigned by the assembler.
	Addr uint64
	Len  uint8

	// UopCount overrides the default micro-op decomposition when
	// nonzero (used by MSROMOP).
	UopCount uint8
}

// Microcoded reports whether the instruction is delivered by the MSROM.
// On the modelled Skylake, instructions decomposing into more than four
// micro-ops are microcoded; CPUID is microcoded on real hardware too.
func (in *Inst) Microcoded() bool {
	return in.Op == MSROMOP || in.Op == CPUID
}

// Uops returns the number of micro-ops this macro-op decodes into,
// before any macro- or micro-fusion.
func (in *Inst) Uops() int {
	if in.UopCount != 0 {
		return int(in.UopCount)
	}
	switch in.Op {
	case NOP, MOVI, MOV, ADD, SUB, AND, OR, XOR, SHL, SHR,
		CMP, TEST, JMP, JCC, JMPI, LOAD, LOADB, CLFLUSH,
		LFENCE, PAUSE, SYSRET, HALT:
		return 1
	case STORE, STOREB:
		// Stores are micro-fused: the address and data micro-ops share
		// one slot in the micro-op cache and the IDQ (§II-C).
		return 1
	case CALL, CALLI, RDTSC, SYSCALL, ITLBFLUSH, RET:
		return 2
	case CPUID:
		return 6
	case MSROMOP:
		return 8
	default:
		return 1
	}
}

// IsBranch reports whether the instruction redirects control flow.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case JMP, JCC, JMPI, CALL, CALLI, RET, SYSCALL, SYSRET:
		return true
	}
	return false
}

// IsUncondJump reports whether the instruction unconditionally redirects
// fetch. Placement rule: an unconditional jump is always the last
// micro-op of a micro-op cache line.
func (in *Inst) IsUncondJump() bool {
	switch in.Op {
	case JMP, JMPI, CALL, CALLI, RET, SYSCALL, SYSRET:
		return true
	}
	return false
}

// End returns the address one past the last byte of the instruction.
func (in *Inst) End() uint64 { return in.Addr + uint64(in.Len) }

// String implements fmt.Stringer.
func (in *Inst) String() string {
	switch in.Op {
	case NOP:
		return fmt.Sprintf("nop%d", in.Len)
	case JCC:
		return fmt.Sprintf("j%s 0x%x", in.Cond, uint64(in.Imm))
	case JMP, CALL:
		return fmt.Sprintf("%s 0x%x", in.Op, uint64(in.Imm))
	case MOVI:
		return fmt.Sprintf("movi %s, %d", in.Dst, in.Imm)
	case LOAD, LOADB:
		return fmt.Sprintf("%s %s, [%s+%d]", in.Op, in.Dst, in.Src, in.Imm)
	case STORE, STOREB:
		return fmt.Sprintf("%s [%s+%d], %s", in.Op, in.Src, in.Imm, in.Dst)
	default:
		if in.HasImm {
			return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
	}
}

// KernelEntry is the architectural SYSCALL target: guest images place
// kernel code there, and every core's fetch engine and backend redirect
// to it.
const KernelEntry uint64 = 0x40_0000

// Path names the front-end path that delivered a micro-op to the IDQ,
// one per perfctr delivery counter (MITEUops, MSROMUops, DSBUops,
// LSDUops).
type Path uint8

// Delivery paths.
const (
	// PathMITE is the legacy decoders.
	PathMITE Path = iota
	// PathMSROM is the microcode sequencer.
	PathMSROM
	// PathDSB is the micro-op cache.
	PathDSB
	// PathLSD is the loop stream detector.
	PathLSD
)

var pathNames = [...]string{"mite", "msrom", "dsb", "lsd"}

// String implements fmt.Stringer.
func (p Path) String() string {
	if int(p) < len(pathNames) {
		return pathNames[p]
	}
	return fmt.Sprintf("path(%d)", uint8(p))
}

// Uop is a decoded micro-op, the unit buffered in the micro-op cache,
// the IDQ, and the backend.
type Uop struct {
	// Op is the parent macro-op opcode; Index is this micro-op's
	// position within the macro-op's decomposition; Count the total.
	Op    Op
	Index uint8
	Count uint8

	// MacroAddr/MacroLen identify the parent macro-op; NextAddr is the
	// fall-through address used for branch-resolution redirects.
	MacroAddr uint64
	MacroLen  uint8

	// Slots is the number of micro-op cache slots consumed (2 for a
	// 64-bit immediate).
	Slots uint8
	// Fused marks a macro-fused compare+branch micro-op.
	Fused bool
	// Path is the front-end path that delivered the micro-op: decode
	// sets PathMITE or PathMSROM, and the fetch engine re-marks a
	// micro-op PathDSB or PathLSD when it streams out of the micro-op
	// cache or the loop stream detector.
	Path Path

	// Dst, Src, Imm, Cond mirror the macro-op operands.
	Dst  Reg
	Src  Reg
	Imm  int64
	Cond Cond
	// HasImm selects the immediate form for ALU/compare micro-ops.
	HasImm bool

	// FusedOp carries the compare half of a macro-fused compare+branch
	// micro-op (CMP or TEST); FusedSrc/FusedImm/FusedHasImm are its
	// second operand. The branch half lives in the main fields.
	FusedOp     Op
	FusedSrc    Reg
	FusedImm    int64
	FusedHasImm bool

	// BranchPC is the address of the branch macro-op itself — for a
	// macro-fused micro-op this differs from MacroAddr (which names
	// the compare). Predictor lookups and updates key on BranchPC.
	BranchPC uint64

	// PredTaken/PredTarget carry the branch-prediction outcome the
	// fetch engine followed past this micro-op, so the backend can
	// detect mispredictions on resolution.
	PredTaken  bool
	PredTarget uint64
}

// IsBranch reports whether the micro-op resolves control flow in the
// backend. Only the last micro-op of a branch macro-op carries the
// branch semantics.
func (u *Uop) IsBranch() bool {
	switch u.Op {
	case JMP, JCC, JMPI, CALL, CALLI, RET, SYSCALL, SYSRET:
		return u.Index == u.Count-1
	}
	return false
}

// FallThrough returns the address of the next sequential macro-op.
func (u *Uop) FallThrough() uint64 { return u.MacroAddr + uint64(u.MacroLen) }
