package staticlint

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deaduops/internal/isa"
)

// Tests for the value-set analysis's memory environment: the sorted
// cell slice is held to the lattice laws the fixpoint relies on, and
// its loads and stores to a map-keyed reference model of the same
// rules, wraparound at both ends of the address space included.

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
	for _, i := range rng.Perm(len(vsaMemAddrs))[:rng.Intn(13)] {
		st.mem = append(st.mem, vsaCell{addr: vsaMemAddrs[i], val: randCellVal(rng)})
	}
	slices.SortFunc(st.mem, func(x, y vsaCell) int { return cmp.Compare(x.addr, y.addr) })
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

// memMap is the map form of an environment.
func memMap(st *vsaState) map[uint64]vset {
	m := make(map[uint64]vset, len(st.mem))
	for _, c := range st.mem {
		m[c.addr] = c.val
	}
	return m
}

// mapStateEqual is equal written over maps: the reference the slice
// comparison must agree with.
func mapStateEqual(x, y *vsaState) bool {
	if x.memTop != y.memTop || !regsEqual(x, y) {
		return false
	}
	xm, ym := memMap(x), memMap(y)
	if len(xm) != len(ym) {
		return false
	}
	for k, v := range xm {
		if w, ok := ym[k]; !ok || !v.equal(w) {
			return false
		}
	}
	return true
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
	for i, c := range st.mem {
		if c.val.top || len(c.val.vals) == 0 {
			t.Fatalf("%s: cell %#x holds %v, want a bounded set", what, c.addr, c.val)
		}
		if i > 0 && st.mem[i-1].addr >= c.addr {
			t.Fatalf("%s: cells out of order at %d: %#x then %#x", what, i, st.mem[i-1].addr, c.addr)
		}
	}
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
					y.mem = slices.Delete(y.mem, k, k+1)
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
		xm, ym, jm := memMap(x), memMap(y), memMap(xy)
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
	cells := []vsaCell{{0x100, vsConst(1)}, {0x108, vsConst(2)}, {0x110, vsConst(3)}}
	src := &vsaState{regs: st.regs, mem: cells[1:2]}
	dst := &vsaState{regs: st.regs}
	buf := make([]vsaCell, len(cells))
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

// mapModel is the reference memory environment: the store and load
// rules of the value-set analysis written over a map, one cell deleted
// per overlapping address exactly as the rules state them.
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

// TestVSAMemoryMatchesMapModel drives random STORE, STOREB and LOAD
// sequences through the analysis's transfer functions and the map
// model side by side: after every step the environments must hold the
// same cells (sorted, none TOP), agree on poisoning, and every load must
// read the same value set. Stores land within 7 bytes of address 0 and
// of 2^64-1, so the overlap-kill rule's wraparound is exercised. Every
// eighth sequence also stores to a fresh address on half its steps, so
// it outgrows maxVSAMemCells and must poison memory with the model.
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
			default:
				st.regs[2] = base
				got := a.vsaLoad(st, &isa.Inst{Op: isa.LOAD, Dst: 3, Src: 2, Imm: imm})
				if want := model.load(base, imm); !got.equal(want) {
					t.Fatalf("seq %d step %d: load %v%+d = %v, model reads %v", seq, step, base, imm, got, want)
				}
			}
			checkSorted(t, "after a store", st)
			if st.memTop != model.top {
				t.Fatalf("seq %d step %d: memTop %v, model %v", seq, step, st.memTop, model.top)
			}
			got := memMap(st)
			if len(got) != len(model.cells) {
				t.Fatalf("seq %d step %d: %d cells, model has %d", seq, step, len(got), len(model.cells))
			}
			for addr, v := range model.cells {
				if g, ok := got[addr]; !ok || !g.equal(v) {
					t.Fatalf("seq %d step %d: cell %#x = %v (tracked %v), model %v", seq, step, addr, g, ok, v)
				}
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
