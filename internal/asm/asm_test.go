package asm

import (
	"slices"
	"strings"
	"testing"

	"deaduops/internal/isa"
)

func TestLabelsAndFixups(t *testing.T) {
	b := New(0x1000)
	b.Jmp("target") // forward reference
	b.Nop(3)
	b.Label("target")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	addr := p.MustLabel("target")
	jmp := p.At(0x1000)
	if jmp == nil || jmp.Op != isa.JMP {
		t.Fatal("no jmp at origin")
	}
	if uint64(jmp.Imm) != addr {
		t.Errorf("fixup: jmp target %#x, label %#x", jmp.Imm, addr)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := New(0)
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted")
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := New(0)
	b.Label("x").Nop(1).Label("x")
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestAlignPadsWithNops(t *testing.T) {
	b := New(0x1001)
	b.Align(32)
	if b.PC() != 0x1020 {
		t.Errorf("PC after align = %#x", b.PC())
	}
	b.Nop(1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Padding must be contiguous executable NOPs.
	addr := uint64(0x1001)
	for addr < 0x1020 {
		in := p.At(addr)
		if in == nil || in.Op != isa.NOP {
			t.Fatalf("no pad NOP at %#x", addr)
		}
		addr = in.End()
	}
}

func TestAlignRejectsNonPowerOfTwo(t *testing.T) {
	b := New(0)
	b.Align(24)
	if _, err := b.Build(); err == nil {
		t.Error("align 24 accepted")
	}
}

func TestOrgForwardOnly(t *testing.T) {
	b := New(0x100)
	b.Nop(1)
	b.Org(0x80)
	if _, err := b.Build(); err == nil {
		t.Error("backwards org accepted")
	}
}

func TestOrgLeavesGap(t *testing.T) {
	b := New(0x100)
	b.Nop(1)
	b.Org(0x200)
	b.Halt()
	p := b.MustBuild()
	if p.At(0x150) != nil {
		t.Error("gap is mapped")
	}
	if p.At(0x200) == nil {
		t.Error("post-org instruction missing")
	}
}

func TestNopRegionExactBytes(t *testing.T) {
	for _, tc := range []struct{ bytes, count int }{
		{32, 3}, {32, 4}, {32, 32}, {16, 2}, {30, 2},
	} {
		b := New(0)
		b.NopRegion(tc.bytes, tc.count)
		p, err := b.Build()
		if err != nil {
			t.Fatalf("NopRegion(%d,%d): %v", tc.bytes, tc.count, err)
		}
		if p.Size() != tc.count {
			t.Errorf("NopRegion(%d,%d): %d insts", tc.bytes, tc.count, p.Size())
		}
		total := 0
		for _, in := range p.Insts {
			total += int(in.Len)
		}
		if total != tc.bytes {
			t.Errorf("NopRegion(%d,%d): %d bytes", tc.bytes, tc.count, total)
		}
	}
}

func TestNopRegionRejectsImpossible(t *testing.T) {
	for _, tc := range []struct{ bytes, count int }{
		{32, 0}, {2, 3}, {100, 5},
	} {
		b := New(0)
		b.NopRegion(tc.bytes, tc.count)
		if _, err := b.Build(); err == nil {
			t.Errorf("NopRegion(%d,%d) accepted", tc.bytes, tc.count)
		}
	}
}

func TestInstructionLengths(t *testing.T) {
	b := New(0)
	b.Movi(isa.R1, 1)     // 5
	b.Movi64(isa.R2, 1)   // 10
	b.Mov(isa.R1, isa.R2) // 3
	b.Addi(isa.R1, 1)     // 4
	b.Jmp("end")          // 5
	b.JmpShort("end")     // 2
	b.Label("end")
	b.Halt() // 1
	p := b.MustBuild()
	wantLens := []uint8{5, 10, 3, 4, 5, 2, 1}
	for i, in := range p.Insts {
		if in.Len != wantLens[i] {
			t.Errorf("inst %d (%v): len %d, want %d", i, in.Op, in.Len, wantLens[i])
		}
	}
	// Addresses must be contiguous.
	addr := uint64(0)
	for _, in := range p.Insts {
		if in.Addr != addr {
			t.Errorf("inst %v at %#x, want %#x", in.Op, in.Addr, addr)
		}
		addr = in.End()
	}
}

func TestImm64TakesTwoSlots(t *testing.T) {
	b := New(0)
	b.Movi64(isa.R1, 1<<40)
	p := b.MustBuild()
	if !p.Insts[0].Imm64 {
		t.Error("Movi64 not marked Imm64")
	}
}

func TestLCPMarking(t *testing.T) {
	b := New(0)
	b.NopLCP(14)
	b.Nop(14)
	p := b.MustBuild()
	if !p.Insts[0].LCP || p.Insts[1].LCP {
		t.Error("LCP flags wrong")
	}
}

func TestRawAndLast(t *testing.T) {
	b := New(0)
	b.Raw(isa.Inst{Op: isa.PAUSE}, 2)
	b.Last().LCP = true
	p := b.MustBuild()
	if p.Insts[0].Op != isa.PAUSE || !p.Insts[0].LCP {
		t.Error("Raw/Last roundtrip failed")
	}
}

func TestLastBeforeEmitFails(t *testing.T) {
	b := New(0)
	_ = b.Last()
	if _, err := b.Build(); err == nil {
		t.Error("Last() before emit accepted")
	}
}

func TestEntryResolution(t *testing.T) {
	// Default entry: first instruction.
	b := New(0x500)
	b.Nop(1).Halt()
	if p := b.MustBuild(); p.Entry != 0x500 {
		t.Errorf("entry %#x", p.Entry)
	}
	// Explicit "entry" label wins.
	b2 := New(0x500)
	b2.Nop(1)
	b2.Label("entry")
	b2.Halt()
	if p := b2.MustBuild(); p.Entry != 0x501 {
		t.Errorf("entry %#x", p.Entry)
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := New(0x1000)
	a.Label("fa").Halt()
	pa := a.MustBuild()
	b := New(0x2000)
	b.Label("fb").Halt()
	pb := b.MustBuild()
	m, err := Merge(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entry != pa.Entry {
		t.Errorf("merged entry %#x", m.Entry)
	}
	if m.At(0x1000) == nil || m.At(0x2000) == nil {
		t.Error("merged image incomplete")
	}
	if _, ok := m.Label("fb"); !ok {
		t.Error("label fb lost in merge")
	}
}

func TestMergeAddressCollision(t *testing.T) {
	a := New(0x1000)
	a.Halt()
	b := New(0x1000)
	b.Nop(1)
	if _, err := Merge(a.MustBuild(), b.MustBuild()); err == nil {
		t.Error("address collision accepted")
	}
}

func TestMergeLabelCollisionFirstWins(t *testing.T) {
	a := New(0x1000)
	a.Label("entry").Halt()
	b := New(0x2000)
	b.Label("entry").Halt()
	m, err := Merge(a.MustBuild(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MustLabel("entry"); got != 0x1000 {
		t.Errorf("entry = %#x, want first program's", got)
	}
	if got, want := m.Labels(), []LabelBinding{{"entry", 0x1000}}; !slices.Equal(got, want) {
		t.Errorf("Labels() = %v, want %v", got, want)
	}
}

// TestLabelsSortedAllocFree: Labels returns the bindings sorted by name
// without allocating, on a built and on a merged program, and Label,
// LabelAt and Merge's earliest-program-wins rule read the same
// bindings.
func TestLabelsSortedAllocFree(t *testing.T) {
	a := New(0x1000)
	a.Label("zeta").Label("alpha").Nop(1).Label("mid").Label("shared").Halt()
	b := New(0x2000)
	b.Label("shared").Label("beta").Halt()
	pa, pb := a.MustBuild(), b.MustBuild()
	m, err := Merge(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Program
		want []LabelBinding
	}{
		{"built", pa, []LabelBinding{{"alpha", 0x1000}, {"mid", 0x1001}, {"shared", 0x1001}, {"zeta", 0x1000}}},
		{"merged", m, []LabelBinding{{"alpha", 0x1000}, {"beta", 0x2000}, {"mid", 0x1001}, {"shared", 0x1001}, {"zeta", 0x1000}}},
	} {
		if got := tc.p.Labels(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Labels() = %v, want %v", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.p.Labels() }); n != 0 {
			t.Errorf("%s: Labels() allocates %v times, want 0", tc.name, n)
		}
		for _, l := range tc.want {
			if got, ok := tc.p.Label(l.Name); !ok || got != l.Addr {
				t.Errorf("%s: Label(%q) = %#x, %v, want %#x", tc.name, l.Name, got, ok, l.Addr)
			}
		}
		if _, ok := tc.p.Label("absent"); ok {
			t.Errorf("%s: Label(\"absent\") is bound", tc.name)
		}
		if got := tc.p.LabelAt(0x1001); got != "mid" {
			t.Errorf("%s: LabelAt(0x1001) = %q, want the first name, mid", tc.name, got)
		}
	}
}

func TestBadLengthRejected(t *testing.T) {
	b := New(0)
	b.Nop(16)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "length") {
		t.Errorf("16-byte nop accepted: %v", err)
	}
	b2 := New(0)
	b2.Nop(0)
	if _, err := b2.Build(); err == nil {
		t.Error("0-byte nop accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	b := New(0)
	b.Jmp("undefined")
	b.MustBuild()
}

func TestMustLabelPanics(t *testing.T) {
	b := New(0)
	b.Halt()
	p := b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Error("MustLabel did not panic")
		}
	}()
	p.MustLabel("nope")
}

func TestMsromEmitter(t *testing.T) {
	b := New(0)
	b.Msrom(12)
	p := b.MustBuild()
	if got := p.Insts[0].Uops(); got != 12 {
		t.Errorf("msrom uops = %d", got)
	}
	bad := New(0)
	bad.Msrom(2)
	if _, err := bad.Build(); err == nil {
		t.Error("msrom with 2 µops accepted (belongs to the complex decoder)")
	}
}

// TestAtOnlyInstructionStarts holds the dense index to the map it
// replaced: across Build and Merge images with short gaps (one
// segment), long gaps (separate segments) and interleaved programs,
// At returns the instruction starting at each byte and nil for every
// byte inside an instruction, in a gap, or outside the image, and
// From(a)[i] agrees with At(a+i).
func TestAtOnlyInstructionStarts(t *testing.T) {
	b := New(0x1000)
	b.Nop(3).Movi64(isa.R1, 7).Nop(15)
	b.Org(b.PC() + 40) // short gap: stays in the segment
	b.Nop(1).Cmpi(isa.R1, 2)
	b.Org(0x1000 + 3*maxSegmentGap) // long gap: a new segment
	b.Halt()
	user := b.MustBuild()
	if len(user.segs) != 2 {
		t.Fatalf("Build made %d segments, want 2", len(user.segs))
	}
	mid := New(0x1100).Nop(7).Halt().MustBuild() // inside user's long gap
	kern := New(isa.KernelEntry).Nop(2).Sysret().MustBuild()
	merged, err := Merge(user, kern, mid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Program{user, mid, kern, merged} {
		starts := map[uint64]*isa.Inst{}
		for _, in := range p.Insts {
			starts[in.Addr] = in
		}
		check := func(lo, hi uint64) {
			for a := lo; a < hi; a++ {
				if got, want := p.At(a), starts[a]; got != want {
					t.Fatalf("At(%#x) = %v, want %v", a, got, want)
				}
				run := p.From(a)
				for i := 0; i < len(run) && i < 48; i++ {
					if got, want := run[i], starts[a+uint64(i)]; got != want {
						t.Fatalf("From(%#x)[%d] = %v, want %v", a, i, got, want)
					}
				}
			}
		}
		check(0xf00, 0x1000+4*maxSegmentGap)
		check(isa.KernelEntry-64, isa.KernelEntry+64)
	}
}
