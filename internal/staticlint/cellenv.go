package staticlint

import (
	"cmp"
	"slices"

	"deaduops/internal/isa"
)

// The memory environment and the worklist driver both dataflows share,
// the value-set analysis (resolve.go) and the taint engine (taint.go).

// cell is one tracked memory cell: the 8-byte value at addr.
type cell[V any] struct {
	addr uint64
	val  V
}

// cellEnv is a memory environment: cells sorted by address with no
// duplicates, nil when empty. What an absent cell reads as is the
// owning dataflow's business.
type cellEnv[V any] []cell[V]

// find returns the index of the first cell at or above addr, and
// whether that cell is at addr.
func (e cellEnv[V]) find(addr uint64) (int, bool) {
	return slices.BinarySearchFunc(e, addr, func(c cell[V], a uint64) int { return cmp.Compare(c.addr, a) })
}

// lookup returns the tracked value at addr.
func (e cellEnv[V]) lookup(addr uint64) (v V, ok bool) {
	if i, ok := e.find(addr); ok {
		return e[i].val, true
	}
	return v, false
}

// set tracks v at addr.
func (e *cellEnv[V]) set(addr uint64, v V) {
	if i, ok := e.find(addr); ok {
		(*e)[i].val = v
	} else {
		*e = slices.Insert(*e, i, cell[V]{addr: addr, val: v})
	}
}

// killRange forgets every cell with lo <= addr <= hi except the one at
// spare, when keepSpare is set.
func (e *cellEnv[V]) killRange(lo, hi, spare uint64, keepSpare bool) {
	s := *e
	i, _ := s.find(lo)
	out, j := i, i
	for ; j < len(s) && s[j].addr <= hi; j++ {
		if keepSpare && s[j].addr == spare {
			s[out] = s[j]
			out++
		}
	}
	if s = slices.Delete(s, out, j); len(s) == 0 {
		s = nil
	}
	*e = s
}

// cellJoin is a dataflow's per-cell join policy.
type cellJoin[V any] interface {
	// both joins a cell tracked on both sides; keep false drops it.
	both(d, s V) (v V, keep bool)
	// alone is what a cell tracked on one side only becomes at the
	// merge; keep false drops it.
	alone(addr uint64, v V) (w V, keep bool)
	equal(x, y V) bool
}

// joinCells merges src into *e in place under the policy p and reports
// whether *e changed. Both environments are sorted, so the join is one
// linear merge walk. It compacts within *e's own slice, where it never
// writes ahead of where it reads, until p keeps a cell only src
// tracks: the walk then goes on in a new slice.
func joinCells[V any, P cellJoin[V]](e *cellEnv[V], src cellEnv[V], p P) bool {
	dst := *e
	out, inPlace, changed := dst[:0], true, false
	for i, j := 0, 0; i < len(dst) || j < len(src); {
		var c cell[V]
		keep := false
		switch {
		case j == len(src) || i < len(dst) && dst[i].addr < src[j].addr:
			c.addr = dst[i].addr
			c.val, keep = p.alone(c.addr, dst[i].val)
			changed = changed || !keep || !p.equal(c.val, dst[i].val)
			i++
		case i == len(dst) || src[j].addr < dst[i].addr:
			c.addr = src[j].addr
			if c.val, keep = p.alone(c.addr, src[j].val); keep && inPlace {
				out, inPlace = append(make(cellEnv[V], 0, len(dst)+len(src)), out...), false
			}
			changed = changed || keep
			j++
		default:
			c.addr = dst[i].addr
			c.val, keep = p.both(dst[i].val, src[j].val)
			changed = changed || !keep || !p.equal(c.val, dst[i].val)
			i++
			j++
		}
		if keep {
			out = append(out, c)
		}
	}
	if inPlace {
		clear(dst[len(out):])
	}
	if len(out) == 0 {
		out = nil
	}
	*e = out
	return changed
}

// dataflow is one forward analysis over states of pointer type S: a
// copy into dst's storage (a new state when dst is nil), the in-place
// transfer function, the state an edge carries out of a block's exit
// state (nil prunes the edge), and the in-place join, which reports
// whether dst changed.
type dataflow[S comparable] interface {
	copy(dst, src S) S
	step(st S, in *isa.Inst)
	edge(b *Block, e Edge, out S) S
	join(dst, src S) bool
}

// flowStepCap bounds the worklist steps for an n-block flow. Both
// lattices are finite (taint grows, constants only decay, tracked cells
// are bounded by resolved store sites or maxVSAMemCells, value sets
// saturate), so the fixpoint terminates; the cap guards against
// transfer-function bugs. A var so tests can force exhaustion.
var flowStepCap = func(n int) int { return 1000*n + 1000 }

// fixpoint is the worklist driver both dataflows run on. Each seed
// block (ascending; block 0 of a fully cyclic program) starts from its
// own entry() state, and blocks pop last in, first out. A block reached
// for the first time takes a copy of the edge state; later edge states
// join into it in place. The third result reports whether flowStepCap
// cut the fixpoint short: the in-states are then an under-approximation
// and callers must degrade, not trust them.
func fixpoint[S comparable, F dataflow[S]](g *CFG, f F, seeds []int, entry func() S) (in []S, reached []bool, capped bool) {
	n := len(g.Blocks)
	in = make([]S, n)
	reached = make([]bool, n)
	if len(seeds) == 0 && n > 0 {
		seeds = []int{0}
	}
	work := slices.Clone(seeds)
	var none, out S // out: one exit-state buffer reused for every block
	for _, b := range seeds {
		in[b] = entry()
		reached[b] = true
	}
	for steps, capSteps := 0, flowStepCap(n); len(work) > 0 && steps < capSteps; steps++ {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		blk := g.Blocks[b]
		out = f.copy(out, in[b])
		for _, inst := range blk.Insts {
			f.step(out, inst)
		}
		for _, e := range blk.Succs {
			if e.To < 0 {
				continue
			}
			switch s := f.edge(blk, e, out); {
			case s == none:
			case !reached[e.To]:
				in[e.To] = f.copy(none, s)
				reached[e.To] = true
				work = append(work, e.To)
			case f.join(in[e.To], s):
				work = append(work, e.To)
			}
		}
	}
	return in, reached, len(work) > 0
}
