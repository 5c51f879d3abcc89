package staticlint

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// Tests for the indirect-target resolution pass: value-set tracking
// through const-prop and bounded table loads, the completeness gate,
// the summary fixpoint over resolved call edges, and the degrade-to-
// havoc contract when the flow cap cuts resolution short.

// resolvedMutualProg is mutualProg with every call rewritten into a
// register-indirect one the value-set pass must resolve: main
// dispatches through a constant-moved pointer, and ping/pong recurse
// into each other the same way. Before resolution this program could
// not exist in the call graph at all — every CALLI degraded to havoc —
// so the SCC fixpoint over the resolved A → B → A cycle is pinned
// here, mirroring the direct-call tests' expectations exactly.
func resolvedMutualProg(target int64) (*asm.Program, uint64) {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 3)
	b.Movi(isa.R6, target)
	b.Calli(isa.R6)
	b.Cmpi(isa.R5, 0)
	branch := b.PC()
	b.Jcc(isa.NE, "out")
	b.Label("out")
	b.Halt()
	b.Org(0x2000)
	b.Label("ping")
	b.Xor(isa.R5, isa.R5)
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "ping_out")
	b.Subi(isa.R1, 1)
	b.Movi(isa.R7, 0x3000)
	b.Calli(isa.R7)
	b.Label("ping_out")
	b.Ret()
	b.Org(0x3000)
	b.Label("pong")
	b.Cmpi(isa.R1, 0)
	b.Jcc(isa.EQ, "pong_out")
	b.Subi(isa.R1, 1)
	b.Movi(isa.R7, 0x2000)
	b.Calli(isa.R7)
	b.Label("pong_out")
	b.Ret()
	return b.MustBuild(), branch
}

func TestResolvedMutualRecursionConverges(t *testing.T) {
	// Calling ping through the pointer: every path through the resolved
	// 2-cycle passes ping's xor-self first, so the joined summary kills
	// R5 and the caller's branch is clean — identical to the direct-call
	// TestMutualRecursionKillOnEveryPath.
	ping, _ := resolvedMutualProg(0x2000)
	r := lintRegs(ping, isa.R5)
	if fs := r.ByChecker("secret-dependent-branch"); len(fs) != 0 {
		t.Fatalf("branch flagged despite kill on every resolved path: %v", fs)
	}
	if len(r.Resolved) != 3 {
		t.Fatalf("resolved sites = %d, want 3 (dispatch + both recursion sites)", len(r.Resolved))
	}
	if p := r.Precision; p == nil || p.HavocRate != 0 || p.HavocRateBefore != 1 {
		t.Fatalf("precision = %+v, want fully resolved against a 1.0 before-rate", p)
	}

	// Calling pong: its early-out returns without reaching ping's kill,
	// so the may-taint join over the same cycle must keep the finding.
	pong, branch := resolvedMutualProg(0x3000)
	r = lintRegs(pong, isa.R5)
	if fs := r.ByChecker("secret-dependent-branch"); len(fs) != 1 || fs[0].Addr != branch {
		t.Fatalf("branch findings = %v, want one at %#x (pong's early-out preserves R5)", fs, branch)
	}
}

func TestFlowCapDegradesResolvedSitesToHavoc(t *testing.T) {
	// The same resolvable program under a zeroed flow cap: the value-set
	// fixpoint is cut short, so resolution must report nothing and every
	// CALLI must fall back to the sound havoc summary — an
	// under-approximated target set must never replace havoc.
	old := flowStepCap
	flowStepCap = func(int) int { return 0 }
	defer func() { flowStepCap = old }()
	prog, _ := resolvedMutualProg(0x3000)
	a := Analyze(prog, Spec{SecretRegs: []isa.Reg{isa.R5}}, DefaultConfig())
	if got := a.ResolvedTargets(); len(got) != 0 {
		t.Fatalf("capped fixpoint still resolved %v", got)
	}
	if p := a.PrecisionMetrics(); p == nil || p.HavocSites != p.IndirectSites || p.HavocRate != 1 {
		t.Fatalf("precision = %+v, want every indirect site havocked", p)
	}
	for entry, s := range a.summaries {
		if !s.havoc {
			t.Errorf("summary of %#x survived a capped fixpoint: %+v", entry, s)
		}
	}
}

// fuzzTableAddr and fuzzIdxAddr are the fuzz program's data addresses:
// both sit far from any code so a resolved target can never alias a
// table slot.
const (
	fuzzTableAddr = 0x8000
	fuzzIdxAddr   = 0x8100
)

func TestWideMaskSaturatesToTop(t *testing.T) {
	// AND with a wide immediate on an unknown register must saturate to
	// TOP: the old guard computed 1<<popcount, which overflows int at
	// popcount 63 (`and rX, -2` — the guard goes negative, the makeslice
	// panics) and wraps to zero at 64 (`and rX, -1` — the submask walk
	// enumerates 2^64 entries). Imm is a full int64, so both masks are
	// reachable from any user-supplied program.
	for _, mask := range []uint64{^uint64(0), ^uint64(1), 1<<63 - 1, 0xFFFF, 0x1F} {
		if got := vsMask(vsTop, mask); !got.top {
			t.Errorf("vsMask(TOP, %#x) = %v, want TOP", mask, got)
		}
	}
	// The widest enumerable mask still enumerates: 4 bits = all 16
	// submasks, exactly maxVSetSize.
	if got := vsMask(vsTop, 0xF); got.top || len(got.vals) != 16 {
		t.Errorf("vsMask(TOP, 0xF) = %+v, want the 16 submasks", got)
	}
}

// TestVSFoldSaturatesOnDistinctResults pins that a fold saturates on
// the number of distinct results, not of raw products: {0..8} AND
// {1, 3} has 18 products but only the four results {0, 1, 2, 3}, so a
// masked index whose mask register holds two values keeps its bound.
// A fold whose distinct results do exceed maxVSetSize is still TOP.
func TestVSFoldSaturatesOnDistinctResults(t *testing.T) {
	got := vsFold(isa.AND, vsOf([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}), vsOf([]uint64{1, 3}))
	if want := vsOf([]uint64{0, 1, 2, 3}); !got.equal(want) {
		t.Errorf("{0..8} AND {1, 3} = %+v, want %+v", got, want)
	}
	var lo, hi []uint64
	for v := uint64(0); v < 5; v++ {
		lo = append(lo, v)
		hi = append(hi, 8*v)
	}
	if got := vsFold(isa.ADD, vsOf(lo), vsOf(hi)); !got.top {
		t.Errorf("{0..4} + {0, 8, .., 32} = %+v, want TOP (25 distinct sums)", got)
	}
}

func TestWideMaskDispatchDegradesToHavoc(t *testing.T) {
	// End-to-end form of the same bug: a dispatch index "bounded" by a
	// 63-bit mask must leave the site unresolved (havoc), and the
	// analysis must terminate rather than panic or hang in vsMask.
	b := asm.New(0x1000)
	b.Xor(isa.R1, isa.R1)
	b.Movi(isa.R4, 0x4000)
	b.Store(isa.R1, fuzzTableAddr, isa.R4)
	b.Loadb(isa.R5, isa.R1, fuzzIdxAddr)
	b.Andi(isa.R5, -2)
	b.Addi(isa.R5, fuzzTableAddr)
	b.Load(isa.R6, isa.R5, 0)
	b.Calli(isa.R6)
	b.Halt()
	b.Org(0x4000)
	b.Ret()
	a := Analyze(b.MustBuild(), Spec{}, DefaultConfig())
	if got := a.ResolvedTargets(); len(got) != 0 {
		t.Fatalf("63-bit mask dispatch resolved %v, want havoc", got)
	}
}

// TestOverlappingStoreInvalidatesTrackedCells pins the soundness hole
// the review found: tracked cells are 8-byte values keyed by exact
// address, but a store overlapping a cell's extent concretely rewrites
// part of it. If only the exact-address cell were invalidated, a later
// LOAD at the original address would return the stale value set and a
// CALLI could be "resolved" to a complete-looking set missing the real
// runtime target. Any overlapping STORE (±7 bytes) or STOREB (within
// the 8-byte extent) must kill the cell and degrade the site to havoc.
func TestOverlappingStoreInvalidatesTrackedCells(t *testing.T) {
	build := func(clobber func(b *asm.Builder)) *asm.Program {
		b := asm.New(0x1000)
		b.Xor(isa.R1, isa.R1)
		b.Movi(isa.R4, 0x4000)
		b.Store(isa.R1, fuzzTableAddr, isa.R4) // tracked cell [0x8000,0x8008)
		if clobber != nil {
			b.Movi(isa.R7, 0x123456)
			clobber(b)
		}
		b.Load(isa.R6, isa.R1, fuzzTableAddr)
		b.Calli(isa.R6)
		b.Halt()
		b.Org(0x4000)
		b.Ret()
		return b.MustBuild()
	}
	resolved := func(p *asm.Program) int {
		return len(Analyze(p, Spec{}, DefaultConfig()).ResolvedTargets())
	}

	// Control: the untouched table resolves, and stores adjacent to the
	// cell without overlapping it ([0x7FF8,0x8000) and [0x8008,0x8010))
	// must not over-invalidate.
	if got := resolved(build(nil)); got != 1 {
		t.Fatalf("untouched table: resolved %d sites, want 1", got)
	}
	for _, off := range []int64{-8, 8} {
		p := build(func(b *asm.Builder) { b.Store(isa.R1, fuzzTableAddr+off, isa.R7) })
		if got := resolved(p); got != 1 {
			t.Errorf("non-overlapping store at slot%+d: resolved %d sites, want 1", off, got)
		}
	}

	// Every overlapping clobber must kill resolution.
	overlaps := []struct {
		name    string
		clobber func(b *asm.Builder)
	}{
		{"store one byte above", func(b *asm.Builder) { b.Store(isa.R1, fuzzTableAddr+1, isa.R7) }},
		{"store seven above", func(b *asm.Builder) { b.Store(isa.R1, fuzzTableAddr+7, isa.R7) }},
		{"store one byte below", func(b *asm.Builder) { b.Store(isa.R1, fuzzTableAddr-1, isa.R7) }},
		{"store seven below", func(b *asm.Builder) { b.Store(isa.R1, fuzzTableAddr-7, isa.R7) }},
		{"storeb first byte", func(b *asm.Builder) { b.Storeb(isa.R1, fuzzTableAddr, isa.R7) }},
		{"storeb last byte", func(b *asm.Builder) { b.Storeb(isa.R1, fuzzTableAddr+7, isa.R7) }},
	}
	for _, tc := range overlaps {
		if got := resolved(build(tc.clobber)); got != 0 {
			t.Errorf("%s: site still resolved against the stale cell, want havoc", tc.name)
		}
	}
}

// buildTableProg builds a dispatch through an n-slot function-pointer
// table (n = mask+1, a power of two): the entry stores stub addresses
// into every slot, computes a slot address from either a constant or a
// loaded (statically unknown) index bounded by the mask, loads the
// pointer, and calls it. Returns the program and the stub entry for
// each slot.
func buildTableProg(mask int64, constIdx bool, idx uint8) (*asm.Program, []uint64) {
	n := int(mask) + 1
	stubs := make([]uint64, n)
	b := asm.New(0x1000)
	b.Xor(isa.R1, isa.R1)
	for i := 0; i < n; i++ {
		stubs[i] = uint64(0x4000 + i*0x40)
		b.Movi(isa.R4, int64(stubs[i]))
		b.Store(isa.R1, fuzzTableAddr+int64(i)*8, isa.R4)
	}
	if constIdx {
		b.Movi(isa.R5, int64(idx))
	} else {
		b.Loadb(isa.R5, isa.R1, fuzzIdxAddr)
	}
	b.Andi(isa.R5, mask)
	b.Shli(isa.R5, 3)
	b.Addi(isa.R5, fuzzTableAddr)
	b.Load(isa.R6, isa.R5, 0)
	b.Calli(isa.R6)
	b.Halt()
	for i := 0; i < n; i++ {
		b.Org(stubs[i])
		b.Ret()
	}
	return b.MustBuild(), stubs
}

// randVSet draws a random join operand: TOP one time in 16, else a
// sorted set of up to maxVSetSize values from 0..23 (possibly empty).
func randVSet(rng *rand.Rand) vset {
	if rng.Intn(16) == 0 {
		return vsTop
	}
	var vals []uint64
	for _, v := range rng.Perm(24)[:rng.Intn(maxVSetSize+1)] {
		vals = append(vals, uint64(v))
	}
	if len(vals) == 0 {
		return vset{}
	}
	return vsOf(vals)
}

// TestVSJoinMatchesAppendSort holds the linear merge in vsJoin to a
// literal reference: append both sides and drop duplicates; when that
// union is one of the sides, it is the join; otherwise the join is TOP
// once the sides together hold more than maxVSetSize values, and the
// union sorted through vsOf below that. On random sorted sets, TOP and
// empty sets included, the two must agree, and the join must leave its
// inputs as they were.
func TestVSJoinMatchesAppendSort(t *testing.T) {
	ref := func(x, y vset) vset {
		if x.top || y.top {
			return vsTop
		}
		seen := map[uint64]bool{}
		var union []uint64
		for _, v := range append(append([]uint64(nil), x.vals...), y.vals...) {
			if !seen[v] {
				seen[v] = true
				union = append(union, v)
			}
		}
		contains := len(union) == max(len(x.vals), len(y.vals))
		if !contains && len(x.vals)+len(y.vals) > maxVSetSize {
			return vsTop
		}
		return vsOf(union)
	}
	rng := rand.New(rand.NewSource(1))
	randSet := func() vset { return randVSet(rng) }
	for i := 0; i < 20000; i++ {
		x, y := randSet(), randSet()
		if rng.Intn(8) == 0 {
			y = vset{top: x.top, vals: append([]uint64(nil), x.vals...)}
		}
		xv, yv := append([]uint64(nil), x.vals...), append([]uint64(nil), y.vals...)
		got, want := vsJoin(x, y), ref(x, y)
		if !got.equal(want) {
			t.Fatalf("vsJoin(%v, %v) = %v, append+vsOf gives %v", x, y, got, want)
		}
		if !reflect.DeepEqual(x.vals, xv) || !reflect.DeepEqual(y.vals, yv) {
			t.Fatalf("vsJoin mutated its inputs: %v, %v (were %v, %v)", x.vals, y.vals, xv, yv)
		}
	}
}

// vsLeq reports x ⊑ y in the value-set lattice: y is TOP, or both are
// sets and every value of x is in y.
func vsLeq(x, y vset) bool {
	if y.top {
		return true
	}
	if x.top {
		return false
	}
	for _, v := range x.vals {
		if _, ok := slices.BinarySearch(y.vals, v); !ok {
			return false
		}
	}
	return true
}

// TestVSJoinLatticeLaws holds vsJoin to the laws the fixed-point
// iteration relies on: it is idempotent (x ⊔ x = x, for every x but
// the empty set, which is only the unwritten initial state and joins
// to TOP), commutative, and an upper bound (x ⊑ x ⊔ y). Sets of nine
// or more values exercise the saturation bound: their self-join stays
// a set.
func TestVSJoinLatticeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		x, y := randVSet(rng), randVSet(rng)
		if x.top || len(x.vals) > 0 {
			if got := vsJoin(x, x); !got.equal(x) {
				t.Fatalf("vsJoin(%v, %v) = %v, not idempotent", x, x, got)
			}
		}
		xy, yx := vsJoin(x, y), vsJoin(y, x)
		if !xy.equal(yx) {
			t.Fatalf("vsJoin(%v, %v) = %v but vsJoin(%v, %v) = %v", x, y, xy, y, x, yx)
		}
		if !vsLeq(x, xy) || !vsLeq(y, xy) {
			t.Fatalf("vsJoin(%v, %v) = %v is not an upper bound of both", x, y, xy)
		}
	}
}

// TestVSJoinEqualSetsAllocFree pins the join's fast path: joining two
// equal sets, the common case at a loop header or a merge of paths
// that agree, returns a side itself and allocates nothing.
func TestVSJoinEqualSetsAllocFree(t *testing.T) {
	x := vset{vals: []uint64{0x1000, 0x1040, 0x1080}}
	y := vset{vals: []uint64{0x1000, 0x1040, 0x1080}}
	var got vset
	if n := testing.AllocsPerRun(100, func() { got = vsJoin(x, y) }); n != 0 {
		t.Errorf("joining equal sets allocates %v times, want 0", n)
	}
	if !got.equal(x) {
		t.Errorf("vsJoin(x, x) = %v, want %v", got, x)
	}
}

// FuzzIndirectResolve drives random table sizes and index expressions
// through the resolution pass and holds the completeness invariant:
// whenever a site is resolved, its target set must contain the slot
// any concrete in-range index selects — a resolved set that misses a
// runtime target would silently unsound every joined summary. For
// these well-formed tables resolution is also required to succeed,
// with a constant index pinning the singleton slot and a loaded index
// pinning exactly the mask's reachable slots.
func FuzzIndirectResolve(f *testing.F) {
	f.Add(uint8(0), uint8(0), true)
	f.Add(uint8(0), uint8(0), false)
	f.Add(uint8(1), uint8(1), true)
	f.Add(uint8(1), uint8(3), false)
	f.Add(uint8(2), uint8(2), true)
	f.Add(uint8(2), uint8(255), false)
	f.Fuzz(func(t *testing.T, kRaw, idx uint8, constIdx bool) {
		k := int64(kRaw % 3) // table of 1, 2, or 4 slots
		mask := int64(1)<<k - 1
		prog, stubs := buildTableProg(mask, constIdx, idx)
		a := Analyze(prog, Spec{}, DefaultConfig())
		sites := a.ResolvedTargets()
		if len(sites) != 1 {
			t.Fatalf("mask %#x constIdx=%v: resolved %d sites, want 1", mask, constIdx, len(sites))
		}
		got := map[uint64]bool{}
		for _, tgt := range sites[0].Targets {
			got[tgt] = true
		}
		if constIdx {
			// Const-prop must pin the single selected slot; a larger set
			// is still complete but loses the precision this shape pins.
			want := stubs[int64(idx)&mask]
			if len(got) != 1 || !got[want] {
				t.Fatalf("const index %d & %#x: resolved %v, want {%#x}", idx, mask, sites[0].Targets, want)
			}
			return
		}
		// Loaded index: every in-range slot is reachable, so completeness
		// demands the set contain each one of them.
		for i, stub := range stubs {
			if !got[stub] {
				t.Fatalf("mask %#x: resolved set %v misses slot %d (%#x)", mask, sites[0].Targets, i, stub)
			}
		}
	})
}
