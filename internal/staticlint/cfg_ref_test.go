package staticlint_test

import (
	"fmt"
	"reflect"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
	"deaduops/internal/victim"
)

// checkCFGMatchesReference fails t unless BuildCFG builds the same
// blocks as BuildCFGReference for p, each block's instructions capped
// so an append cannot write the program, and both answer BlockAt and
// BlockOf the same way one byte before, at, and one byte after every
// instruction's first byte, and one past its last.
func checkCFGMatchesReference(t *testing.T, name string, p *asm.Program) {
	t.Helper()
	got, want := staticlint.BuildCFG(p), staticlint.BuildCFGReference(p)
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Fatalf("%s: BuildCFG blocks differ from the reference", name)
	}
	for _, b := range got.Blocks {
		if cap(b.Insts) != len(b.Insts) {
			t.Fatalf("%s: block %d has capacity %d past its %d instructions", name, b.Index, cap(b.Insts), len(b.Insts))
		}
	}
	index := func(b *staticlint.Block) int {
		if b == nil {
			return -1
		}
		return b.Index
	}
	for _, in := range p.Insts {
		for _, addr := range []uint64{in.Addr - 1, in.Addr, in.Addr + 1, in.End()} {
			if g, w := index(got.BlockAt(addr)), index(want.BlockAt(addr)); g != w {
				t.Fatalf("%s: BlockAt(%#x) = %d, reference %d", name, addr, g, w)
			}
			if g, w := index(got.BlockOf(addr)), index(want.BlockOf(addr)); g != w {
				t.Fatalf("%s: BlockOf(%#x) = %d, reference %d", name, addr, g, w)
			}
		}
	}
}

// TestBuildCFGMatchesReference holds BuildCFG to the address-keyed
// reference builder on the victim fixtures, ref.Generate seeds 1–200,
// and one differential-harness victim of every shape under every
// profile.
func TestBuildCFGMatchesReference(t *testing.T) {
	for _, fx := range victim.Fixtures(victim.DefaultLayout()) {
		checkCFGMatchesReference(t, fx.Name, fx.Prog)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		p, err := ref.Generate(seed, ref.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkCFGMatchesReference(t, fmt.Sprintf("random-%d", seed), p)
	}
	for _, prof := range profile.All() {
		h := difftest.NewHarness(prof)
		for shape := difftest.ShapeLeaf; shape <= difftest.ShapeIndirectMutual; shape++ {
			v, err := h.GenerateShape(1, shape)
			if err != nil {
				t.Fatalf("%s %v: %v", prof.Name, shape, err)
			}
			checkCFGMatchesReference(t, fmt.Sprintf("%s/%v", prof.Name, shape), v.Prog)
		}
	}
	checkCFGMatchesReference(t, "empty", asm.New(0x1000).MustBuild())
}

// FuzzBuildCFG holds BuildCFG to the reference builder on the program
// ref.Generate draws from each seed.
func FuzzBuildCFG(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(98))
	f.Fuzz(func(t *testing.T, seed uint64) {
		p, err := ref.Generate(seed, ref.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkCFGMatchesReference(t, fmt.Sprintf("random-%d", seed), p)
	})
}
