package staticlint

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// Tests for the memory environment both dataflows share: the sorted
// cell slice under each engine's join policy is held to the lattice
// laws the fixpoint relies on, and its loads, stores and joins to
// map-keyed reference models of the same rules, wraparound at both ends
// of the address space included.

// envMap is the map form of an environment.
func envMap[V any](e cellEnv[V]) map[uint64]V {
	m := make(map[uint64]V, len(e))
	for _, c := range e {
		m[c.addr] = c.val
	}
	return m
}

// envOf is the environment holding m's cells.
func envOf[V any](m map[uint64]V) cellEnv[V] {
	var e cellEnv[V]
	for addr, v := range m {
		e = append(e, cell[V]{addr: addr, val: v})
	}
	slices.SortFunc(e, func(x, y cell[V]) int { return cmp.Compare(x.addr, y.addr) })
	return e
}

// checkEnv fails unless e is strictly ascending, nil when empty, and
// every value passes valid.
func checkEnv[V any](t *testing.T, what string, e cellEnv[V], valid func(V) bool) {
	t.Helper()
	if e != nil && len(e) == 0 {
		t.Fatalf("%s: empty environment is not nil", what)
	}
	for i, c := range e {
		if !valid(c.val) {
			t.Fatalf("%s: cell %#x holds %v", what, c.addr, c.val)
		}
		if i > 0 && e[i-1].addr >= c.addr {
			t.Fatalf("%s: cells out of order at %d: %#x then %#x", what, i, e[i-1].addr, c.addr)
		}
	}
}

// envDiff describes the first cell where e and the model m disagree,
// or returns "".
func envDiff[V any](e cellEnv[V], m map[uint64]V, eq func(x, y V) bool) string {
	got := envMap(e)
	if len(got) != len(m) {
		return fmt.Sprintf("%d cells, model has %d", len(got), len(m))
	}
	for addr, v := range m {
		if g, ok := got[addr]; !ok || !eq(g, v) {
			return fmt.Sprintf("cell %#x = %v (tracked %v), model %v", addr, g, ok, v)
		}
	}
	return ""
}

// vsaMemAddrs is the address pool random environments draw from:
// clustered so that 8-byte cells overlap, and reaching both ends of the
// address space so that overlap ranges wrap.
var vsaMemAddrs = func() []uint64 {
	var out []uint64
	for _, base := range []uint64{0, 0x8000, math.MaxUint64 - 15} {
		for off := uint64(0); off < 16; off++ {
			out = append(out, base+off)
		}
	}
	return out
}()

// randCellVal draws a value a tracked cell can hold: a bounded,
// non-empty set.
func randCellVal(rng *rand.Rand) vset {
	for {
		if v := randVSet(rng); !v.top && len(v.vals) > 0 {
			return v
		}
	}
}

func boundedCell(v vset) bool { return !v.top && len(v.vals) > 0 }

// randVSAState draws a state whose registers are TOP or non-empty sets
// and whose memory is poisoned one time in eight, else a sorted
// environment of up to 12 cells from vsaMemAddrs.
func randVSAState(rng *rand.Rand) *vsaState {
	st := &vsaState{}
	for r := range st.regs {
		if v := randVSet(rng); v.top || len(v.vals) > 0 {
			st.regs[r] = v
		} else {
			st.regs[r] = vsTop
		}
	}
	if rng.Intn(8) == 0 {
		st.memTop = true
		return st
	}
	m := map[uint64]vset{}
	for _, i := range rng.Perm(len(vsaMemAddrs))[:rng.Intn(13)] {
		m[vsaMemAddrs[i]] = randCellVal(rng)
	}
	st.mem = envOf(m)
	return st
}

// equal reports whether two states are the same abstract state: the
// reference vsaJoin's change report is checked against.
func (s *vsaState) equal(o *vsaState) bool {
	if s.memTop != o.memTop || len(s.mem) != len(o.mem) {
		return false
	}
	for r := range s.regs {
		if !s.regs[r].equal(o.regs[r]) {
			return false
		}
	}
	for i, c := range s.mem {
		if oc := o.mem[i]; c.addr != oc.addr || !c.val.equal(oc.val) {
			return false
		}
	}
	return true
}

// mapStateEqual is equal written over maps: the reference the slice
// comparison must agree with.
func mapStateEqual(x, y *vsaState) bool {
	if x.memTop != y.memTop || !regsEqual(x, y) {
		return false
	}
	return envDiff(x.mem, envMap(y.mem), vset.equal) == ""
}

func regsEqual(x, y *vsaState) bool {
	for r := range x.regs {
		if !x.regs[r].equal(y.regs[r]) {
			return false
		}
	}
	return true
}

// checkSorted fails unless st's environment is strictly ascending, free
// of TOP cells, and nil when memory is poisoned.
func checkSorted(t *testing.T, what string, st *vsaState) {
	t.Helper()
	if st.memTop && st.mem != nil {
		t.Fatalf("%s: poisoned memory keeps %d cells", what, len(st.mem))
	}
	checkEnv(t, what, st.mem, boundedCell)
}

// joined returns x ⊔ y, joining into a clone of x, and checks that the
// in-place join reported a change exactly when the result differs from
// x, and that it left y alone.
func joined(t *testing.T, x, y *vsaState) *vsaState {
	t.Helper()
	before := y.clone()
	out := x.clone()
	if changed := vsaJoin(out, y); changed != !out.equal(x) {
		t.Fatalf("vsaJoin reported changed=%v, but the result equals x: %v\nx   = %+v\nout = %+v", changed, out.equal(x), x, out)
	}
	if !mapStateEqual(y, before) {
		t.Fatalf("vsaJoin modified its source:\nwas %+v\nnow %+v", before, y)
	}
	return out
}

// TestVSAJoinLatticeLaws holds vsaJoin over memory environments to the
// laws the fixed-point iteration relies on: it is idempotent and
// commutative, its environment keeps exactly the cells tracked on both
// sides whose joined value stays bounded (a cell on one side only reads
// as TOP on the other), it reports a change exactly when the joined
// state differs, and vsaState.equal agrees with a map-based comparison
// on joined, cloned, perturbed and unrelated states.
func TestVSAJoinLatticeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		x, y := randVSAState(rng), randVSAState(rng)
		if rng.Intn(4) == 0 {
			// Share most cells, so the intersection is not mostly empty.
			y = x.clone()
			if len(y.mem) > 0 {
				k := rng.Intn(len(y.mem))
				y.mem[k].val = randCellVal(rng)
				if rng.Intn(2) == 0 {
					y.mem.killRange(y.mem[k].addr, y.mem[k].addr, 0, false)
				}
			}
		}
		if xx := joined(t, x, x); !xx.equal(x) {
			t.Fatalf("x ⊔ x != x:\nx  = %+v\nxx = %+v", x, xx)
		}
		xy, yx := joined(t, x, y), joined(t, y, x)
		checkSorted(t, "vsaJoin(x, y)", xy)
		if !xy.equal(yx) {
			t.Fatalf("vsaJoin not commutative:\nxy = %+v\nyx = %+v", xy, yx)
		}
		xm, ym, jm := envMap(x.mem), envMap(y.mem), envMap(xy.mem)
		for addr := range jm {
			if _, ok := xm[addr]; !ok {
				t.Fatalf("joined cell %#x is not tracked on the left", addr)
			}
			if _, ok := ym[addr]; !ok {
				t.Fatalf("joined cell %#x is not tracked on the right", addr)
			}
		}
		if !xy.memTop {
			for addr, xv := range xm {
				yv, ok := ym[addr]
				if !ok {
					continue
				}
				want := vsJoin(xv, yv)
				got, kept := jm[addr]
				if want.top != !kept || kept && !got.equal(want) {
					t.Fatalf("cell %#x: %v join %v = %v (kept %v), want %v", addr, xv, yv, got, kept, want)
				}
			}
		}
		for _, pair := range [][2]*vsaState{{x, y}, {x, x.clone()}, {xy, yx}, {xy, x}, {y, xy}} {
			if got, want := pair[0].equal(pair[1]), mapStateEqual(pair[0], pair[1]); got != want {
				t.Fatalf("equal = %v, map comparison = %v:\n%+v\n%+v", got, want, pair[0], pair[1])
			}
		}
	}
}

// TestVSAJoinAllocFree pins the allocation profile of the fixpoint's
// state handling: cloning a state with an empty environment allocates
// the state alone (the environment stays nil), and a join that changes
// no register's value set allocates nothing, whether it leaves the
// environment as it was, shrinks it, or empties it to nil.
func TestVSAJoinAllocFree(t *testing.T) {
	st := &vsaState{}
	for r := range st.regs {
		st.regs[r] = vsTop
	}
	var c *vsaState
	if n := testing.AllocsPerRun(100, func() { c = st.clone() }); n != 1 || c.mem != nil {
		t.Errorf("cloning an empty-memory state allocates %v times (want 1, the state), memory %v (want nil)", n, c.mem)
	}
	cells := cellEnv[vset]{{0x100, vsConst(1)}, {0x108, vsConst(2)}, {0x110, vsConst(3)}}
	src := &vsaState{regs: st.regs, mem: cells[1:2]}
	dst := &vsaState{regs: st.regs}
	buf := make(cellEnv[vset], len(cells))
	if n := testing.AllocsPerRun(100, func() {
		copy(buf, cells)
		dst.mem = buf
		vsaJoin(dst, src) // keeps 0x108 only
		vsaJoin(dst, src) // unchanged
		vsaJoin(dst, st)  // empties the environment
	}); n != 0 {
		t.Errorf("joins that change no register allocate %v times, want 0", n)
	}
	if dst.mem != nil {
		t.Errorf("joining with an empty environment left %v, want nil", dst.mem)
	}
}

// mapModel is the reference value-set memory environment: the store,
// load and join rules of the value-set analysis written over a map, one
// cell deleted per overlapping address exactly as the rules state them.
type mapModel struct {
	cells map[uint64]vset
	top   bool
}

func (m *mapModel) poison() {
	m.top = true
	m.cells = map[uint64]vset{}
}

func (m *mapModel) store(base vset, imm int64, val vset, width uint64) {
	if m.top {
		return
	}
	addrs, ok := vsaAddrs(base, imm)
	if !ok {
		m.poison()
		return
	}
	for _, addr := range addrs {
		for c := addr - 7; c != addr+width; c++ {
			if width == 8 && c == addr {
				continue
			}
			delete(m.cells, c)
		}
	}
	if width < 8 {
		return
	}
	if len(addrs) == 1 {
		if val.top {
			delete(m.cells, addrs[0])
		} else {
			m.cells[addrs[0]] = val
		}
	} else {
		for _, addr := range addrs {
			if cell, tracked := m.cells[addr]; tracked {
				if j := vsJoin(cell, val); !j.top {
					m.cells[addr] = j
				} else {
					delete(m.cells, addr)
				}
			}
		}
	}
	if len(m.cells) > maxVSAMemCells {
		m.poison()
	}
}

func (m *mapModel) load(base vset, imm int64) vset {
	if m.top {
		return vsTop
	}
	addrs, ok := vsaAddrs(base, imm)
	if !ok {
		return vsTop
	}
	out := vset{}
	for _, addr := range addrs {
		cell, tracked := m.cells[addr]
		if !tracked {
			return vsTop
		}
		if out = vsJoin(out, cell); out.top {
			return vsTop
		}
	}
	if len(out.vals) == 0 {
		return vsTop
	}
	return out
}

// join keeps the cells o also tracks whose joined value stays bounded.
func (m *mapModel) join(o *mapModel) {
	if m.top {
		return
	}
	if o.top {
		m.poison()
		return
	}
	for addr, v := range m.cells {
		if w, ok := o.cells[addr]; ok && !vsJoin(v, w).top {
			m.cells[addr] = vsJoin(v, w)
		} else {
			delete(m.cells, addr)
		}
	}
}

// randAddrBase draws a store or load base: TOP one time in 32, else one
// to three addresses from a pool that reaches both ends of the address
// space.
func randAddrBase(rng *rand.Rand) vset {
	if rng.Intn(32) == 0 {
		return vsTop
	}
	var vals []uint64
	for n := 1 + rng.Intn(3); len(vals) < n; {
		vals = append(vals, vsaMemAddrs[rng.Intn(len(vsaMemAddrs))])
	}
	return vsOf(vals)
}

// perturbedVSA returns a copy of st's memory with some cells changed,
// some dropped and up to two added: the other side of a model join.
func perturbedVSA(rng *rand.Rand, st *vsaState, poison bool) *vsaState {
	m := envMap(st.mem)
	for addr := range m {
		switch rng.Intn(8) {
		case 0, 1:
			m[addr] = randCellVal(rng)
		case 2:
			delete(m, addr)
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		m[vsaMemAddrs[rng.Intn(len(vsaMemAddrs))]] = randCellVal(rng)
	}
	return &vsaState{regs: st.regs, mem: envOf(m), memTop: poison}
}

// TestVSAMemoryMatchesMapModel drives random STORE, STOREB, LOAD and
// join sequences through the analysis's transfer functions and vsaJoin
// and through the map model side by side: after every step the
// environments must hold the same cells (sorted, none TOP), agree on
// poisoning, and every load must read the same value set. Stores land
// within 7 bytes of address 0 and of 2^64-1, so the overlap-kill rule's
// wraparound is exercised. Every eighth sequence also stores to a fresh
// address on half its steps, so it outgrows maxVSAMemCells and must
// poison memory with the model.
func TestVSAMemoryMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &Analysis{}
	poisoned := 0
	for seq := 0; seq < 400; seq++ {
		st := &vsaState{}
		model := &mapModel{cells: map[uint64]vset{}}
		fill := seq%8 == 0
		fresh := uint64(0x10000)
		for step := 0; step < 1000 && !model.top; step++ {
			base, imm := randAddrBase(rng), int64(rng.Intn(17)-8)
			op := rng.Intn(5)
			if fill && base.top {
				// Only the cell cap may poison a filling sequence.
				base = vsConst(vsaMemAddrs[0])
			}
			if fill && rng.Intn(2) == 0 {
				base, imm, op = vsConst(fresh), 0, 0
				fresh += 8
			}
			if !fill && rng.Intn(16) == 0 {
				// A join drops cells, so filling sequences skip it.
				op = 5
			}
			switch op {
			case 0, 1:
				val := randCellVal(rng)
				if rng.Intn(8) == 0 && !fill {
					val = vsTop
				}
				a.vsaStore(st, base, imm, val, 8)
				model.store(base, imm, val, 8)
			case 2:
				a.vsaStore(st, base, imm, vsTop, 1)
				model.store(base, imm, vsTop, 1)
			case 5:
				o := perturbedVSA(rng, st, rng.Intn(32) == 0)
				vsaJoin(st, o)
				model.join(&mapModel{cells: envMap(o.mem), top: o.memTop})
			default:
				st.regs[2] = base
				got := a.vsaLoad(st, &isa.Inst{Op: isa.LOAD, Dst: 3, Src: 2, Imm: imm})
				if want := model.load(base, imm); !got.equal(want) {
					t.Fatalf("seq %d step %d: load %v%+d = %v, model reads %v", seq, step, base, imm, got, want)
				}
			}
			checkSorted(t, "after a step", st)
			if st.memTop != model.top {
				t.Fatalf("seq %d step %d: memTop %v, model %v", seq, step, st.memTop, model.top)
			}
			if d := envDiff(st.mem, model.cells, vset.equal); d != "" {
				t.Fatalf("seq %d step %d: %s", seq, step, d)
			}
		}
		if fill && model.top {
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Error("no filling sequence outgrew maxVSAMemCells; the poison rule went untested")
	}
}

// taintTestAnalysis is an analysis whose source table holds a secret
// register and two secret ranges, the second 8 bytes wide.
func taintTestAnalysis() *Analysis {
	b := asm.New(0x1000)
	b.Halt()
	spec := Spec{
		SecretRegs:   []isa.Reg{isa.R0},
		SecretRanges: []MemRange{{Start: 0x100, End: 0x110}, {Start: 0x200, End: 0x208}},
	}
	return Analyze(b.MustBuild(), spec, DefaultConfig())
}

// taintMemAddrs is the taint model's address pool: cells inside,
// straddling and outside the secret ranges, and at both ends of the
// address space.
var taintMemAddrs = []uint64{0, 8, 0xf8, 0x100, 0x108, 0x10c, 0x1fc, 0x200, 0x300, math.MaxUint64 - 7}

// mapJoin is the taint join computed over map memory into a fresh
// state, as the engine joined before the sorted environment: the
// reference joinInto is held to.
func mapJoin(a *Analysis, x, y *State) *State {
	out := x.clone()
	for r := 0; r < isa.NumRegs; r++ {
		out.Regs[r] |= y.Regs[r]
		if !x.Const[r].known || !y.Const[r].known || x.Const[r].v != y.Const[r].v {
			out.Const[r] = constVal{}
		}
	}
	out.Flags |= y.Flags
	out.UnknownStore |= y.UnknownStore
	xm, ym := envMap(x.Mem), envMap(y.Mem)
	mem := maps.Clone(xm)
	for k, v := range ym {
		if xv, ok := mem[k]; ok {
			mem[k] = xv | v
		} else {
			mem[k] = v | a.rangeSeed(k, 8)
		}
	}
	for k := range xm {
		if _, ok := ym[k]; !ok {
			mem[k] |= a.rangeSeed(k, 8)
		}
	}
	out.Mem = envOf(mem)
	return out
}

func anyTaint(taintSet) bool { return true }

// equal reports whether two states carry identical facts: the
// reference joinInto's change report is checked against.
func (s *State) equal(o *State) bool {
	return s.Regs == o.Regs && s.Const == o.Const && s.Flags == o.Flags &&
		s.UnknownStore == o.UnknownStore && slices.Equal(s.Mem, o.Mem)
}

// TestStateJoinLatticeLaws holds Analysis.joinInto to the laws the
// worklist fixpoint relies on, over random states: it is idempotent
// (x ⊔ x = x), commutative, an upper bound of both sides, and monotone
// (x ⊑ x' implies x ⊔ y ⊑ x' ⊔ y); it reports a change exactly when
// the result differs from the state joined into, leaves its source as
// it was, and computes the same state as mapJoin. The order reads a
// memory cell a state does not track as its secret-range seed, the
// taint a load from it observes; a constant is below only itself and
// the unknown value.
func TestStateJoinLatticeLaws(t *testing.T) {
	a := taintTestAnalysis()
	cells := []uint64{0xf8, 0x100, 0x108, 0x10c, 0x200, 0x300}
	rng := rand.New(rand.NewSource(4))
	taint := func() taintSet { return taintSet(rng.Intn(32)) }
	randState := func() *State {
		st := &State{Flags: taint(), UnknownStore: taint()}
		for r := range st.Regs {
			st.Regs[r] = taint()
			if rng.Intn(3) == 0 {
				st.Const[r] = constVal{known: true, v: int64(rng.Intn(3))}
			}
		}
		m := map[uint64]taintSet{}
		for _, k := range cells {
			if rng.Intn(2) == 0 {
				m[k] = taint()
			}
		}
		st.Mem = envOf(m)
		return st
	}
	cell := func(s *State, k uint64) taintSet {
		if v, ok := s.Mem.lookup(k); ok {
			return v
		}
		return a.rangeSeed(k, 8)
	}
	within := func(x, y taintSet) bool { return x&^y == 0 }
	leq := func(x, y *State) bool {
		for r := range x.Regs {
			if !within(x.Regs[r], y.Regs[r]) || y.Const[r].known && y.Const[r] != x.Const[r] {
				return false
			}
		}
		if !within(x.Flags, y.Flags) || !within(x.UnknownStore, y.UnknownStore) {
			return false
		}
		for _, k := range cells {
			if !within(cell(x, k), cell(y, k)) {
				return false
			}
		}
		return true
	}
	join := func(x, y *State) *State {
		t.Helper()
		out, yc := x.clone(), y.clone()
		if changed := a.joinInto(out, y); changed != !out.equal(x) {
			t.Fatalf("joinInto reported changed=%v for x = %+v, y = %+v, result %+v", changed, x, y, out)
		}
		if !y.equal(yc) {
			t.Fatalf("joinInto modified its source: was %+v, now %+v", yc, y)
		}
		if ref := mapJoin(a, x, y); !out.equal(ref) {
			t.Fatalf("joinInto(x, y) = %+v, map join = %+v", out, ref)
		}
		checkEnv(t, "joinInto", out.Mem, anyTaint)
		return out
	}
	for i := 0; i < 5000; i++ {
		x, y, z := randState(), randState(), randState()
		if rng.Intn(4) == 0 {
			y.Mem = slices.Clone(x.Mem) // same cells: no growth
		}
		if got := join(x, x); !got.equal(x) {
			t.Fatalf("join(x, x) = %+v, want x = %+v", got, x)
		}
		xy, yx := join(x, y), join(y, x)
		if !xy.equal(yx) {
			t.Fatalf("join(x, y) = %+v but join(y, x) = %+v", xy, yx)
		}
		if !leq(x, xy) || !leq(y, xy) {
			t.Fatalf("join(x, y) = %+v is not an upper bound of x = %+v and y = %+v", xy, x, y)
		}
		xz := join(x, z) // x ⊑ xz by the upper-bound law
		if !leq(xy, join(xz, y)) {
			t.Fatalf("join is not monotone: x = %+v, x' = %+v, y = %+v", x, xz, y)
		}
	}
}

// TestTaintJoinAllocFree mirrors TestVSAJoinAllocFree for the taint
// engine: cloning a state with an empty environment allocates the
// state alone, and joining a source whose cells are a subset of the
// destination's allocates nothing.
func TestTaintJoinAllocFree(t *testing.T) {
	a := taintTestAnalysis()
	empty := &State{}
	var c *State
	if n := testing.AllocsPerRun(100, func() { c = empty.clone() }); n != 1 || c.Mem != nil {
		t.Errorf("cloning an empty-memory state allocates %v times (want 1, the state), memory %v (want nil)", n, c.Mem)
	}
	cells := cellEnv[taintSet]{{0x100, 1}, {0x108, 0}, {0x300, 4}}
	dst := &State{Mem: slices.Clone(cells)}
	subset, same := &State{Mem: cells[1:2]}, &State{Mem: cells}
	if n := testing.AllocsPerRun(100, func() {
		a.joinInto(dst, subset)
		a.joinInto(dst, same)
		a.joinInto(dst, empty)
	}); n != 0 {
		t.Errorf("joins of a subset environment allocate %v times, want 0", n)
	}
}

// TestTaintZeroCellSurvivesJoinAndClone: a tracked cell holding no
// taint is a kill (a store of a clean value, the CALL push's return
// address), and reads as clean, where an untracked cell reads as its
// secret-range seed. Clone and join must keep it as a cell; meeting an
// untracked cell at a join, it takes that cell's seed.
func TestTaintZeroCellSurvivesJoinAndClone(t *testing.T) {
	a := taintTestAnalysis()
	load := func(st *State, addr uint64) taintSet {
		st = st.clone()
		st.Const[2] = constVal{known: true, v: int64(addr)}
		a.step(st, &isa.Inst{Op: isa.LOAD, Dst: 3, Src: 2}, nil)
		return st.Regs[3]
	}
	if load(&State{}, 0x100) == 0 {
		t.Fatal("an untracked secret cell reads as clean; the test proves nothing")
	}
	st := &State{}
	st.Const[15] = constVal{known: true, v: 0x108}
	a.step(st, &isa.Inst{Op: isa.CALL}, nil) // pushes a clean return address at 0x100
	st.Mem.set(0x300, 0)
	want := cellEnv[taintSet]{{0x100, 0}, {0x300, 0}}
	if c := st.clone(); !slices.Equal(c.Mem, want) || load(c, 0x100) != 0 {
		t.Fatalf("clone holds %v (load of 0x100 reads %v), want %v read as clean", c.Mem, load(c, 0x100), want)
	}
	dst := st.clone()
	if a.joinInto(dst, st.clone()) || !slices.Equal(dst.Mem, want) {
		t.Fatalf("joining two zero cells gives %v, want %v unchanged", dst.Mem, want)
	}
	src := &State{Const: st.Const}
	if !a.joinInto(dst, src) {
		t.Fatal("joining untracked cells into zero cells reported no change")
	}
	want = cellEnv[taintSet]{{0x100, a.rangeSeed(0x100, 8)}, {0x300, 0}}
	if !slices.Equal(dst.Mem, want) {
		t.Fatalf("zero cells joined with untracked ones give %v, want %v", dst.Mem, want)
	}
}

// TestTaintMemoryMatchesMapModel drives random STORE, LOAD (resolved
// and unresolved), CALL and join steps through the taint engine's
// transfer function and joinInto, and through a map model of the same
// rules side by side: after every step the environments must hold the
// same cells (sorted, zero-taint cells included), every load must read
// the same taint, and a join must report a change exactly when the
// model's memory changed.
func TestTaintMemoryMatchesMapModel(t *testing.T) {
	a := taintTestAnalysis()
	rng := rand.New(rand.NewSource(6))
	var may taintSet
	for i := range a.Spec.SecretRanges {
		may |= a.rangeMay[i]
	}
	taint := func() taintSet {
		if rng.Intn(4) == 0 {
			return 0
		}
		return taintSet(rng.Intn(64))
	}
	randAddr := func() uint64 { return taintMemAddrs[rng.Intn(len(taintMemAddrs))] }
	for seq := 0; seq < 300; seq++ {
		st := &State{UnknownStore: taintSet(rng.Intn(4))}
		model := map[uint64]taintSet{}
		for step := 0; step < 200; step++ {
			addr := randAddr()
			st.Const[2] = constVal{known: true, v: int64(addr)}
			switch rng.Intn(7) {
			case 0, 1:
				st.Regs[3] = taint()
				a.step(st, &isa.Inst{Op: isa.STORE, Dst: 3, Src: 2}, nil)
				model[addr] = st.Regs[3]
			case 2:
				st.Const[15] = constVal{known: true, v: int64(addr + 8)}
				a.step(st, &isa.Inst{Op: isa.CALL}, nil)
				model[addr] = 0
			case 3:
				st.Const[2] = constVal{}
				a.step(st, &isa.Inst{Op: isa.LOAD, Dst: 4, Src: 2}, nil)
				want := may | st.UnknownStore
				for _, v := range model {
					want |= v
				}
				if st.Regs[4] != want {
					t.Fatalf("seq %d step %d: unresolved load reads %v, model %v", seq, step, st.Regs[4], want)
				}
			case 4, 5:
				a.step(st, &isa.Inst{Op: isa.LOAD, Dst: 4, Src: 2}, nil)
				want, ok := model[addr]
				if !ok {
					want = a.rangeSeed(addr, 8)
				}
				if st.Regs[4] != want {
					t.Fatalf("seq %d step %d: load %#x reads %v, model %v", seq, step, addr, st.Regs[4], want)
				}
			default:
				o := st.clone()
				om := envMap(o.Mem)
				for k := range om {
					switch rng.Intn(4) {
					case 0:
						om[k] = taint()
					case 1:
						delete(om, k)
					}
				}
				for n := rng.Intn(3); n > 0; n-- {
					om[randAddr()] = taint()
				}
				o.Mem = envOf(om)
				before := maps.Clone(model)
				for k, v := range om {
					if mv, ok := model[k]; ok {
						model[k] = mv | v
					} else {
						model[k] = v | a.rangeSeed(k, 8)
					}
				}
				for k := range before {
					if _, ok := om[k]; !ok {
						model[k] |= a.rangeSeed(k, 8)
					}
				}
				if changed := a.joinInto(st, o); changed != !maps.Equal(model, before) {
					t.Fatalf("seq %d step %d: join reported changed=%v, model changed=%v", seq, step, changed, !maps.Equal(model, before))
				}
			}
			checkEnv(t, "after a step", st.Mem, anyTaint)
			if d := envDiff(st.Mem, model, func(x, y taintSet) bool { return x == y }); d != "" {
				t.Fatalf("seq %d step %d: %s", seq, step, d)
			}
		}
	}
}
