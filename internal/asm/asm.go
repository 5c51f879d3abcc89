// Package asm provides a small assembler for SX86 programs: labels,
// forward references, alignment, and explicit control over instruction
// length and prefix composition — the knobs the paper's microbenchmarks
// (Listings 1-3) turn to steer micro-op cache placement.
package asm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"deaduops/internal/isa"
)

// Program is an assembled SX86 code image. Instructions are addressed;
// fetch looks them up by the address of their first byte.
type Program struct {
	Insts []*isa.Inst
	// segs indexes the image densely: one table per contiguous run of
	// code, sorted by base address (see index).
	segs []segment
	// labels is every binding, sorted by name: built once by Build or
	// Merge, and returned as is by Labels.
	labels []LabelBinding

	// Entry is the address of the first instruction emitted after the
	// builder's origin (or the label named "entry" if defined).
	Entry uint64
}

// segment is one contiguous run of code: at[a-base] is the
// instruction whose first byte is a, or nil for a byte inside an
// instruction or a short unmapped gap.
type segment struct {
	base uint64
	at   []*isa.Inst
}

// maxSegmentGap is the widest unmapped gap one segment spans. A wider
// gap (an Org jump between a chain's ways, a separately placed kernel
// image) starts a new segment, so a table costs at most this many
// empty slots per gap, while regions a few sets apart (a chain striped
// across sets) stay in one table and fetch searches few segments.
const maxSegmentGap = 256

// At returns the instruction whose first byte is at addr, or nil.
func (p *Program) At(addr uint64) *isa.Inst {
	if run := p.From(addr); len(run) > 0 {
		return run[0]
	}
	return nil
}

// From returns the dense index from addr to the end of its contiguous
// run of code: From(addr)[i] is At(addr+i), nil where no instruction
// starts. It is empty when addr is outside every run. A caller walking
// consecutive instructions searches once instead of once per
// instruction; the slice is the program's own and must not be written.
func (p *Program) From(addr uint64) []*isa.Inst {
	// The last segment based at or below addr is the only one that can
	// hold it.
	lo, hi := 0, len(p.segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.segs[m].base <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return nil
	}
	s := &p.segs[lo-1]
	if off := addr - s.base; off < uint64(len(s.at)) {
		return s.at[off:]
	}
	return nil
}

// index builds the dense segment tables over insts, which must be
// sorted by address. When two instructions share an address it
// returns that pair instead.
func index(insts []*isa.Inst) (segs []segment, prev, clash *isa.Inst) {
	for i := 0; i < len(insts); {
		// Extend the segment while the next instruction starts within
		// maxSegmentGap of the furthest end so far.
		base, end := insts[i].Addr, insts[i].End()
		j := i + 1
		for ; j < len(insts) && insts[j].Addr <= end+maxSegmentGap; j++ {
			end = max(end, insts[j].End())
		}
		s := segment{base: base, at: make([]*isa.Inst, end-base)}
		for _, in := range insts[i:j] {
			if prev := s.at[in.Addr-base]; prev != nil {
				return nil, prev, in
			}
			s.at[in.Addr-base] = in
		}
		segs = append(segs, s)
		i = j
	}
	return segs, nil, nil
}

// Label returns the address bound to name.
func (p *Program) Label(name string) (uint64, bool) {
	i, ok := slices.BinarySearchFunc(p.labels, name, func(l LabelBinding, n string) int { return strings.Compare(l.Name, n) })
	if !ok {
		return 0, false
	}
	return p.labels[i].Addr, true
}

// MustLabel returns the address bound to name, panicking if undefined.
func (p *Program) MustLabel(name string) uint64 {
	a, ok := p.Label(name)
	if !ok {
		panic(fmt.Sprintf("asm: undefined label %q", name))
	}
	return a
}

// LabelAt returns a label bound to addr, or "" if none. When several
// labels share the address the lexicographically first is returned, so
// callers rendering addresses symbolically stay deterministic.
func (p *Program) LabelAt(addr uint64) string {
	for _, l := range p.labels {
		if l.Addr == addr {
			return l.Name
		}
	}
	return ""
}

// Size returns the number of instructions in the program.
func (p *Program) Size() int { return len(p.Insts) }

// LabelBinding is one label → address binding of an assembled program.
type LabelBinding struct {
	Name string
	Addr uint64
}

// Labels returns every label binding sorted by name — the canonical
// enumeration callers hashing or rendering a whole program need (labels
// reach findings through LabelAt, so two programs differing only in a
// label are distinct program content). The slice is the program's own,
// sorted once when it was built or merged: callers must not write it.
func (p *Program) Labels() []LabelBinding { return p.labels }

// byName orders label bindings by name.
func byName(x, y LabelBinding) int { return strings.Compare(x.Name, y.Name) }

// fixup records a pending branch-target resolution.
type fixup struct {
	inst  *isa.Inst
	label string
}

// Builder assembles a Program. The zero value is not usable; call New.
type Builder struct {
	insts  []*isa.Inst
	labels map[string]uint64
	fixups []fixup
	pc     uint64
	err    error
}

// New returns a Builder whose first instruction will be placed at org.
func New(org uint64) *Builder {
	return &Builder{labels: make(map[string]uint64), pc: org}
}

// PC returns the address at which the next instruction will be placed.
func (b *Builder) PC() uint64 { return b.pc }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// emit appends an instruction of the given encoded length.
func (b *Builder) emit(in isa.Inst, length uint8) *isa.Inst {
	if length < 1 || length > 15 {
		b.fail("instruction length %d out of range [1,15]", length)
		length = 1
	}
	in.Addr = b.pc
	in.Len = length
	p := &in
	b.insts = append(b.insts, p)
	b.pc += uint64(length)
	return p
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = b.pc
	return b
}

// Align pads with NOPs so the next instruction starts at a multiple of n
// (a power of two). Padding uses the fewest NOPs possible (15-byte max).
func (b *Builder) Align(n uint64) *Builder {
	if n == 0 || n&(n-1) != 0 {
		b.fail("align %d is not a power of two", n)
		return b
	}
	for b.pc%n != 0 {
		gap := n - b.pc%n
		if gap > 15 {
			gap = 15
		}
		b.emit(isa.Inst{Op: isa.NOP}, uint8(gap))
	}
	return b
}

// Org moves the placement address forward to addr, leaving an unmapped
// gap. Control flow must never fall through a gap.
func (b *Builder) Org(addr uint64) *Builder {
	if addr < b.pc {
		b.fail("org 0x%x is behind pc 0x%x", addr, b.pc)
		return b
	}
	b.pc = addr
	return b
}

// Nop emits a NOP of the given encoded length (1-15 bytes).
func (b *Builder) Nop(length int) *Builder {
	b.emit(isa.Inst{Op: isa.NOP}, uint8(length))
	return b
}

// NopLCP emits a NOP carrying a length-changing prefix, which stalls the
// predecoder. The paper's tiger/zebra code pads with these to maximize
// the decode-pipeline penalty on a micro-op cache miss.
func (b *Builder) NopLCP(length int) *Builder {
	b.emit(isa.Inst{Op: isa.NOP, LCP: true}, uint8(length))
	return b
}

// NopRegion emits NOPs totalling exactly `bytes` bytes using `count`
// instructions. It fails if the combination is not encodable.
func (b *Builder) NopRegion(bytes, count int) *Builder {
	if count < 1 || bytes < count || bytes > count*15 {
		b.fail("nop region %d bytes / %d insts not encodable", bytes, count)
		return b
	}
	for i := 0; i < count; i++ {
		rem := count - i
		length := (bytes + rem - 1) / rem // ceil split keeps all lengths legal
		if length > 15 {
			length = 15
		}
		b.Nop(length)
		bytes -= length
	}
	return b
}

// Movi emits MOVI dst, imm with a 32-bit immediate (5 bytes).
func (b *Builder) Movi(dst isa.Reg, imm int64) *Builder {
	b.emit(isa.Inst{Op: isa.MOVI, Dst: dst, Imm: imm, HasImm: true}, 5)
	return b
}

// Movi64 emits MOVI dst, imm with a 64-bit immediate (10 bytes). The
// immediate occupies two micro-op cache slots.
func (b *Builder) Movi64(dst isa.Reg, imm int64) *Builder {
	b.emit(isa.Inst{Op: isa.MOVI, Dst: dst, Imm: imm, HasImm: true, Imm64: true}, 10)
	return b
}

// Mov emits MOV dst, src.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.MOV, Dst: dst, Src: src}, 3)
	return b
}

func (b *Builder) alu(op isa.Op, dst, src isa.Reg) *Builder {
	b.emit(isa.Inst{Op: op, Dst: dst, Src: src}, 3)
	return b
}

func (b *Builder) alui(op isa.Op, dst isa.Reg, imm int64) *Builder {
	b.emit(isa.Inst{Op: op, Dst: dst, Imm: imm, HasImm: true}, 4)
	return b
}

// Add emits ADD dst, src (register form, like the other ALU emitters
// below; the -i suffix marks the immediate forms).
func (b *Builder) Add(dst, src isa.Reg) *Builder { return b.alu(isa.ADD, dst, src) }

// Addi emits ADD dst, imm.
func (b *Builder) Addi(dst isa.Reg, imm int64) *Builder { return b.alui(isa.ADD, dst, imm) }

// Sub emits SUB dst, src.
func (b *Builder) Sub(dst, src isa.Reg) *Builder { return b.alu(isa.SUB, dst, src) }

// Subi emits SUB dst, imm.
func (b *Builder) Subi(dst isa.Reg, imm int64) *Builder { return b.alui(isa.SUB, dst, imm) }

// And emits AND dst, src.
func (b *Builder) And(dst, src isa.Reg) *Builder { return b.alu(isa.AND, dst, src) }

// Andi emits AND dst, imm.
func (b *Builder) Andi(dst isa.Reg, imm int64) *Builder { return b.alui(isa.AND, dst, imm) }

// Or emits OR dst, src.
func (b *Builder) Or(dst, src isa.Reg) *Builder { return b.alu(isa.OR, dst, src) }

// Ori emits OR dst, imm.
func (b *Builder) Ori(dst isa.Reg, imm int64) *Builder { return b.alui(isa.OR, dst, imm) }

// Xor emits XOR dst, src.
func (b *Builder) Xor(dst, src isa.Reg) *Builder { return b.alu(isa.XOR, dst, src) }

// Xori emits XOR dst, imm.
func (b *Builder) Xori(dst isa.Reg, imm int64) *Builder { return b.alui(isa.XOR, dst, imm) }

// Shli emits SHL dst, imm.
func (b *Builder) Shli(dst isa.Reg, imm int64) *Builder { return b.alui(isa.SHL, dst, imm) }

// Shri emits SHR dst, imm (logical).
func (b *Builder) Shri(dst isa.Reg, imm int64) *Builder { return b.alui(isa.SHR, dst, imm) }

// Shl emits SHL dst, src (register-count shift).
func (b *Builder) Shl(dst, src isa.Reg) *Builder { return b.alu(isa.SHL, dst, src) }

// Shr emits SHR dst, src (register-count logical shift).
func (b *Builder) Shr(dst, src isa.Reg) *Builder { return b.alu(isa.SHR, dst, src) }

// Cmp emits CMP a, r (register form).
func (b *Builder) Cmp(a, r isa.Reg) *Builder { return b.alu(isa.CMP, a, r) }

// Cmpi emits CMP a, imm.
func (b *Builder) Cmpi(a isa.Reg, imm int64) *Builder { return b.alui(isa.CMP, a, imm) }

// Test emits TEST a, r.
func (b *Builder) Test(a, r isa.Reg) *Builder { return b.alu(isa.TEST, a, r) }

// Testi emits TEST a, imm.
func (b *Builder) Testi(a isa.Reg, imm int64) *Builder { return b.alui(isa.TEST, a, imm) }

// Jmp emits an unconditional jump to label (5-byte encoding).
func (b *Builder) Jmp(label string) *Builder {
	in := b.emit(isa.Inst{Op: isa.JMP}, 5)
	b.fixups = append(b.fixups, fixup{in, label})
	return b
}

// JmpShort emits a 2-byte unconditional jump to label.
func (b *Builder) JmpShort(label string) *Builder {
	in := b.emit(isa.Inst{Op: isa.JMP}, 2)
	b.fixups = append(b.fixups, fixup{in, label})
	return b
}

// Jcc emits a conditional jump to label.
func (b *Builder) Jcc(c isa.Cond, label string) *Builder {
	in := b.emit(isa.Inst{Op: isa.JCC, Cond: c}, 2)
	b.fixups = append(b.fixups, fixup{in, label})
	return b
}

// Jmpi emits an indirect jump through r.
func (b *Builder) Jmpi(r isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.JMPI, Dst: r}, 3)
	return b
}

// Call emits a direct call to label.
func (b *Builder) Call(label string) *Builder {
	in := b.emit(isa.Inst{Op: isa.CALL}, 5)
	b.fixups = append(b.fixups, fixup{in, label})
	return b
}

// Calli emits an indirect call through r.
func (b *Builder) Calli(r isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.CALLI, Dst: r}, 3)
	return b
}

// Ret emits a return.
func (b *Builder) Ret() *Builder {
	b.emit(isa.Inst{Op: isa.RET}, 1)
	return b
}

// Load emits LOAD dst, [base+off] (8 bytes).
func (b *Builder) Load(dst, base isa.Reg, off int64) *Builder {
	b.emit(isa.Inst{Op: isa.LOAD, Dst: dst, Src: base, Imm: off}, 4)
	return b
}

// Loadb emits LOADB dst, [base+off] (one byte, zero-extended).
func (b *Builder) Loadb(dst, base isa.Reg, off int64) *Builder {
	b.emit(isa.Inst{Op: isa.LOADB, Dst: dst, Src: base, Imm: off}, 4)
	return b
}

// Store emits STORE [base+off], src (8 bytes).
func (b *Builder) Store(base isa.Reg, off int64, src isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.STORE, Dst: src, Src: base, Imm: off}, 4)
	return b
}

// Storeb emits STOREB [base+off], src (low byte).
func (b *Builder) Storeb(base isa.Reg, off int64, src isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.STOREB, Dst: src, Src: base, Imm: off}, 4)
	return b
}

// Clflush emits CLFLUSH [base+off].
func (b *Builder) Clflush(base isa.Reg, off int64) *Builder {
	b.emit(isa.Inst{Op: isa.CLFLUSH, Src: base, Imm: off}, 4)
	return b
}

// Lfence emits LFENCE (dispatch fence).
func (b *Builder) Lfence() *Builder {
	b.emit(isa.Inst{Op: isa.LFENCE}, 3)
	return b
}

// Cpuid emits CPUID (fetch-serializing).
func (b *Builder) Cpuid() *Builder {
	b.emit(isa.Inst{Op: isa.CPUID}, 2)
	return b
}

// Pause emits PAUSE (never cached in the micro-op cache).
func (b *Builder) Pause() *Builder {
	b.emit(isa.Inst{Op: isa.PAUSE}, 2)
	return b
}

// Rdtsc emits RDTSC, reading the cycle counter into dst.
func (b *Builder) Rdtsc(dst isa.Reg) *Builder {
	b.emit(isa.Inst{Op: isa.RDTSC, Dst: dst}, 2)
	return b
}

// Syscall emits SYSCALL (enter supervisor mode at the kernel entry).
func (b *Builder) Syscall() *Builder {
	b.emit(isa.Inst{Op: isa.SYSCALL}, 2)
	return b
}

// Sysret emits SYSRET (return to user mode).
func (b *Builder) Sysret() *Builder {
	b.emit(isa.Inst{Op: isa.SYSRET}, 2)
	return b
}

// ItlbFlush emits ITLBFLUSH (flushes the iTLB and, by inclusion, the
// entire micro-op cache).
func (b *Builder) ItlbFlush() *Builder {
	b.emit(isa.Inst{Op: isa.ITLBFLUSH}, 3)
	return b
}

// Halt emits HALT, stopping the hardware thread.
func (b *Builder) Halt() *Builder {
	b.emit(isa.Inst{Op: isa.HALT}, 1)
	return b
}

// Msrom emits a microcoded instruction that expands to uops micro-ops
// (must exceed the complex decoder's width of 4).
func (b *Builder) Msrom(uops int) *Builder {
	if uops < 5 || uops > 200 {
		b.fail("msrom uop count %d out of range [5,200]", uops)
		return b
	}
	b.emit(isa.Inst{Op: isa.MSROMOP, UopCount: uint8(uops)}, 3)
	return b
}

// Raw emits an arbitrary pre-built instruction with the given length,
// for cases the convenience emitters don't cover.
func (b *Builder) Raw(in isa.Inst, length int) *Builder {
	b.emit(in, uint8(length))
	return b
}

// Last returns the most recently emitted instruction for in-place
// tweaks (length, LCP) before Build. It fails the build if nothing has
// been emitted.
func (b *Builder) Last() *isa.Inst {
	if len(b.insts) == 0 {
		b.fail("Last called before any instruction was emitted")
		return &isa.Inst{}
	}
	return b.insts[len(b.insts)-1]
}

// Build resolves labels and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		addr, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		f.inst.Imm = int64(addr)
	}
	// Emission order is address order: the PC only moves forward.
	segs, prev, clash := index(b.insts)
	if clash != nil {
		return nil, fmt.Errorf("asm: address 0x%x hosts both %v and %v", clash.Addr, prev, clash)
	}
	p := &Program{Insts: b.insts, segs: segs, labels: make([]LabelBinding, 0, len(b.labels))}
	for name, addr := range b.labels {
		p.labels = append(p.labels, LabelBinding{Name: name, Addr: addr})
	}
	slices.SortFunc(p.labels, byName)
	if len(b.insts) > 0 {
		p.Entry = b.insts[0].Addr
	}
	if e, ok := b.labels["entry"]; ok {
		p.Entry = e
	}
	return p, nil
}

// MustBuild is Build, panicking on error. Intended for tests and
// generated microbenchmarks whose shape is statically known to be valid.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Merge combines programs with disjoint address ranges into one image
// (e.g. user code and kernel code). Entry is taken from the first.
func Merge(progs ...*Program) (*Program, error) {
	out := &Program{}
	for pi, p := range progs {
		out.Insts = append(out.Insts, p.Insts...)
		out.labels = append(out.labels, p.labels...)
		if pi == 0 {
			out.Entry = p.Entry
		}
	}
	// On a label-name collision the earliest program wins: the stable
	// sort keeps its binding first among those of the name. Callers
	// address later programs through their own Program values (captured
	// before the merge).
	slices.SortStableFunc(out.labels, byName)
	out.labels = slices.CompactFunc(out.labels, func(x, y LabelBinding) bool { return x.Name == y.Name })
	sort.SliceStable(out.Insts, func(i, j int) bool { return out.Insts[i].Addr < out.Insts[j].Addr })
	segs, prev, clash := index(out.Insts)
	if clash != nil {
		return nil, fmt.Errorf("asm: merge collision at 0x%x (%v vs %v)", clash.Addr, prev, clash)
	}
	out.segs = segs
	return out, nil
}
