package rows

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRowCappedAtWidth pins the 3-index carving of the shared backing
// array: every row has length and capacity w, so an append to one row
// reallocates instead of overwriting the next row.
func TestRowCappedAtWidth(t *testing.T) {
	const n, w = 64, 12
	tab := New[int](n, w)
	if len(tab.All()) != n*w {
		t.Fatalf("backing array holds %d entries, want %d", len(tab.All()), n*w)
	}
	for i := 0; i < n; i++ {
		row := tab.Row(i)
		if len(row) != w || cap(row) != w {
			t.Fatalf("row %d: len %d cap %d, want %d/%d", i, len(row), cap(row), w, w)
		}
		row[0] = i + 1
		if got := tab.All()[i*w]; got != i+1 {
			t.Fatalf("row %d does not alias entry %d of All: got %d", i, i*w, got)
		}
	}
}

// TestResetEqualsNew pins Reset against construction, for zero and
// filled initial values: a table with marked, written rows, once
// reset, holds the same entries and saves the same snapshot as a new
// one.
func TestResetEqualsNew(t *testing.T) {
	const n, w = 16, 4
	for _, tc := range []struct {
		name string
		mk   func() Table[uint8]
	}{
		{"New", func() Table[uint8] { return New[uint8](n, w) }},
		{"NewFilled", func() Table[uint8] { return NewFilled[uint8](n, w, 1) }},
	} {
		tab, fresh := tc.mk(), tc.mk()
		for _, i := range []int{3, 0, 15, 3} {
			tab.Mark(i)
			for k := range tab.Row(i) {
				tab.Row(i)[k] = uint8(10 + i + k)
			}
		}
		tab.Reset()
		if !bytes.Equal(tab.All(), fresh.All()) {
			t.Errorf("%s: reset table holds %v, a new one %v", tc.name, tab.All(), fresh.All())
		}
		var got, want State[uint8]
		tab.Save(&got)
		fresh.Save(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset table saves %+v, a new one %+v", tc.name, got, want)
		}
	}
}

// TestSaveRestoreRoundTrip pins the snapshot: it holds exactly the
// marked rows, and Restore brings back their contents while returning
// rows marked only after the Save to the initial value.
func TestSaveRestoreRoundTrip(t *testing.T) {
	const n, w = 32, 2
	tab := NewFilled[int](n, w, -1)
	for _, i := range []int{5, 9, 5, 30} {
		tab.Mark(i)
		tab.Row(i)[1] = i
	}
	var s State[int]
	tab.Save(&s)
	if s.Len() != 3 {
		t.Errorf("snapshot holds %d rows after marking 3, want 3", s.Len())
	}
	want := append([]int(nil), tab.All()...)

	tab.Mark(9)
	tab.Row(9)[0] = 99
	tab.Mark(17)
	tab.Row(17)[0] = 17
	tab.Restore(&s)
	if !reflect.DeepEqual(tab.All(), want) {
		t.Errorf("restored table holds %v, want %v", tab.All(), want)
	}
	var again State[int]
	tab.Save(&again)
	if !reflect.DeepEqual(again, s) {
		t.Errorf("restored table saves %+v, the snapshot was %+v", again, s)
	}

	other := NewFilled[int](n, w, -1)
	other.Restore(&s)
	if !reflect.DeepEqual(other.All(), want) {
		t.Errorf("snapshot restored into a new table holds %v, want %v", other.All(), want)
	}
}

// TestRestoreShapeMismatchPanics pins the geometry check: a snapshot
// restores only into a table with the same row count and width.
func TestRestoreShapeMismatchPanics(t *testing.T) {
	var s State[int]
	src := New[int](8, 4)
	src.Save(&s)
	for _, tc := range []struct {
		name string
		n, w int
	}{
		{"rows", 16, 4},
		{"width", 8, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore from a %dx%d snapshot into %dx%d did not panic", tc.name, 8, 4, tc.n, tc.w)
				}
			}()
			dst := New[int](tc.n, tc.w)
			dst.Restore(&s)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Restore from a zero State did not panic")
			}
		}()
		dst := New[int](8, 4)
		dst.Restore(&State[int]{})
	}()
}

// FuzzTableSaveRestore runs random Mark+write, Save, Restore and Reset
// sequences on a Table and checks each step against a dense reference
// that copies the whole array. After every step it also checks the
// invariant the sparse snapshot relies on: the marked rows alone,
// restored into a new table, reproduce the whole contents.
func FuzzTableSaveRestore(f *testing.F) {
	f.Add([]byte{0, 1, 7, 0, 20, 3, 1, 0, 0, 0, 5, 9, 2, 0, 0, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 23, 4, 2, 0, 0, 0, 2, 1, 3, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n, w, init = 8, 3, 1
		tab := NewFilled[uint8](n, w, init)
		dense := bytes.Repeat([]byte{init}, n*w)
		var s State[uint8]
		var saved []byte // dense contents at the last Save; nil before one
		for step := 0; len(ops) >= 3; step++ {
			op, a, v := ops[0]%4, int(ops[1])%(n*w), ops[2]
			ops = ops[3:]
			switch op {
			case 0:
				tab.Mark(a / w)
				tab.All()[a] = v
				dense[a] = v
			case 1:
				tab.Save(&s)
				saved = append(saved[:0], dense...)
			case 2:
				if saved == nil {
					continue
				}
				tab.Restore(&s)
				copy(dense, saved)
			case 3:
				tab.Reset()
				for i := range dense {
					dense[i] = init
				}
			}
			if !bytes.Equal(tab.All(), dense) {
				t.Fatalf("step %d (op %d): table %v, dense reference %v", step, op, tab.All(), dense)
			}
			var chk State[uint8]
			tab.Save(&chk)
			if chk.Len() > n {
				t.Fatalf("step %d: snapshot holds %d rows of %d", step, chk.Len(), n)
			}
			fresh := NewFilled[uint8](n, w, init)
			fresh.Restore(&chk)
			if !bytes.Equal(fresh.All(), dense) {
				t.Fatalf("step %d: marked rows alone give %v, want %v", step, fresh.All(), dense)
			}
		}
	})
}
