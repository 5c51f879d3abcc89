// Package rows is the one place the simulator tracks touched state.
// A Table is n rows of w entries that remembers which rows were
// marked, in first-mark order, so Save, Restore and Reset copy and
// clear only those rows. The guest memory image, every cache level,
// the branch predictors and the micro-op cache keep their contents in
// Tables, so snapshotting a 4 MiB image or an 8192-set LLC costs the
// workload's footprint, not the structure's size.
package rows

// Table is n rows of w entries of E, every entry starting at the
// table's initial value. The rows are carved from one backing array,
// so building a table costs a constant number of allocations however
// many rows it has.
//
// Every method relies on one invariant: an unmarked row holds the
// initial value in every entry. Callers keep it by calling Mark(i)
// before any write that can make row i differ from it.
type Table[E any] struct {
	e        []E
	w        int
	init     E
	marked   []int32 // marked rows, in first-mark order
	isMarked []bool
}

// New returns a table of n rows of w zero entries.
func New[E any](n, w int) Table[E] {
	return Table[E]{e: make([]E, n*w), w: w, isMarked: make([]bool, n)}
}

// NewFilled returns a table of n rows of w entries, each equal to
// init.
func NewFilled[E any](n, w int, init E) Table[E] {
	t := New[E](n, w)
	t.init = init
	fill(t.e, init)
	return t
}

// fill sets every entry of s to v, doubling the filled prefix with
// copy so a 4 KiB row costs a dozen memmoves instead of 4096 stores.
func fill[E any](s []E, v E) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// All returns the flat backing array: row i is All()[i*w : (i+1)*w].
func (t *Table[E]) All() []E { return t.e }

// Row returns row i. Its capacity is capped at w, so an append to one
// row reallocates instead of overwriting the next.
func (t *Table[E]) Row(i int) []E {
	return t.e[i*t.w : (i+1)*t.w : (i+1)*t.w]
}

// Mark records that row i may differ from the initial value. It must
// come before any such write.
func (t *Table[E]) Mark(i int) {
	if !t.isMarked[i] {
		t.isMarked[i] = true
		t.marked = append(t.marked, int32(i))
	}
}

// Reset returns every marked row to the initial value and unmarks it,
// leaving the table equal to a new one in O(marked rows).
func (t *Table[E]) Reset() {
	for _, i := range t.marked {
		fill(t.Row(int(i)), t.init)
		t.isMarked[i] = false
	}
	t.marked = t.marked[:0]
}

// State is a sparse snapshot of a Table: its shape, and the marked
// rows with their contents. The zero value is ready, and its buffers
// are recycled across Save calls.
type State[E any] struct {
	n, w int
	rows []int32
	vals []E
}

// Len returns how many rows the snapshot holds.
func (s *State[E]) Len() int { return len(s.rows) }

// Save copies every marked row into s, reusing s's buffers.
func (t *Table[E]) Save(s *State[E]) {
	s.n, s.w = len(t.isMarked), t.w
	s.rows = append(s.rows[:0], t.marked...)
	n := len(t.marked) * t.w
	if cap(s.vals) < n {
		s.vals = make([]E, n)
	}
	s.vals = s.vals[:n]
	for k, i := range t.marked {
		copy(s.vals[k*t.w:(k+1)*t.w], t.Row(int(i)))
	}
}

// Restore overwrites the table from s in O(rows marked here or in s):
// it resets, then copies the snapshot's rows back and marks them. It
// panics if s was saved from a table of a different shape.
func (t *Table[E]) Restore(s *State[E]) {
	if s.n != len(t.isMarked) || s.w != t.w {
		panic("rows: Restore from a snapshot of a different shape")
	}
	t.Reset()
	for k, i := range s.rows {
		copy(t.Row(int(i)), s.vals[k*t.w:(k+1)*t.w])
		t.isMarked[i] = true
	}
	t.marked = append(t.marked, s.rows...)
}
