package bpu

import (
	"math/rand"
	"reflect"
	"testing"
)

func newBPU() *BPU { return New() }

func TestDirectionTrainsTaken(t *testing.T) {
	b := newBPU()
	pc := uint64(0x1000)
	if b.PredictDirection(pc) {
		t.Error("cold prediction taken (counters init weakly not-taken)")
	}
	b.UpdateDirection(pc, true)
	b.UpdateDirection(pc, true)
	if !b.PredictDirection(pc) {
		t.Error("not taken after two taken updates")
	}
	b.UpdateDirection(pc, false)
	b.UpdateDirection(pc, false)
	if b.PredictDirection(pc) {
		t.Error("still taken after two not-taken updates")
	}
}

func TestDirectionSaturates(t *testing.T) {
	b := newBPU()
	pc := uint64(0x42)
	for i := 0; i < 10; i++ {
		b.UpdateDirection(pc, true)
	}
	// One contrary outcome must not flip a saturated counter.
	b.UpdateDirection(pc, false)
	if !b.PredictDirection(pc) {
		t.Error("saturated counter flipped by one outcome")
	}
}

func TestIndirectPredictor(t *testing.T) {
	b := newBPU()
	if _, ok := b.PredictIndirect(0x200); ok {
		t.Error("cold indirect hit")
	}
	b.UpdateIndirect(0x200, 0x8000)
	tgt, ok := b.PredictIndirect(0x200)
	if !ok || tgt != 0x8000 {
		t.Errorf("indirect = %#x, %v", tgt, ok)
	}
	// Retraining moves the prediction — the variant-2 secret encoding.
	b.UpdateIndirect(0x200, 0xC000)
	tgt, _ = b.PredictIndirect(0x200)
	if tgt != 0xC000 {
		t.Errorf("indirect not retrained: %#x", tgt)
	}
}

func TestRSBLIFO(t *testing.T) {
	b := newBPU()
	b.PushRSB(0x1)
	b.PushRSB(0x2)
	b.PushRSB(0x3)
	want := []uint64{0x3, 0x2, 0x1}
	for _, w := range want {
		got, ok := b.PopRSB()
		if !ok || got != w {
			t.Errorf("pop = %#x, %v; want %#x", got, ok, w)
		}
	}
	if _, ok := b.PopRSB(); ok {
		t.Error("pop from empty RSB succeeded")
	}
}

func TestRSBOverflowWraps(t *testing.T) {
	b := newBPU()
	for i := 0; i < RSBDepth+4; i++ {
		b.PushRSB(uint64(i))
	}
	// The most recent pushes must still be correct.
	for i := RSBDepth + 3; i >= 4; i-- {
		got, ok := b.PopRSB()
		if !ok || got != uint64(i) {
			t.Fatalf("pop = %d, %v; want %d", got, ok, i)
		}
	}
}

// TestDirectionIgnoresHistory pins the aliasing in-place mistraining
// relies on: the direction predictor is indexed by the branch PC
// alone, so a branch trained one way keeps predicting that way
// whatever outcomes other branches had in between.
func TestDirectionIgnoresHistory(t *testing.T) {
	const pc = 0x500
	rng := rand.New(rand.NewSource(1))
	for _, trained := range []bool{true, false} {
		for trial := 0; trial < 64; trial++ {
			b := newBPU()
			b.UpdateDirection(pc, trained)
			b.UpdateDirection(pc, trained)
			n := 1 + rng.Intn(32)
			for i := 0; i < n; i++ {
				other := 0x1000 + 4*uint64(rng.Intn(64))
				b.UpdateDirection(other, rng.Intn(2) == 1)
			}
			if got := b.PredictDirection(pc); got != trained {
				t.Fatalf("trial %d: branch trained taken=%v predicts taken=%v after %d other outcomes",
					trial, trained, got, n)
			}
		}
	}
}

func TestReset(t *testing.T) {
	b := newBPU()
	b.UpdateDirection(0x10, true)
	b.UpdateDirection(0x10, true)
	b.UpdateIndirect(0x20, 0x99)
	b.PushRSB(0x30)
	b.UpdateDirection(0x40, true)
	b.Reset()
	// The reset predictor must equal a new one in every field, RSB slot
	// contents included.
	var got, want State
	b.Save(&got)
	newBPU().Save(&want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset state differs from a new predictor's:\n got %+v\nwant %+v", got, want)
	}
	if b.PredictDirection(0x10) {
		t.Error("direction survived reset")
	}
	if _, ok := b.PredictIndirect(0x20); ok {
		t.Error("indirect survived reset")
	}
	if _, ok := b.PopRSB(); ok {
		t.Error("RSB survived reset")
	}
}

// TestSaveScalesWithTouchedEntries pins the sparse snapshot: a
// predictor that trained k branches saves k entries per table, not the
// tables' full sizes, and the snapshot restores exactly.
func TestSaveScalesWithTouchedEntries(t *testing.T) {
	const k = 5
	b := newBPU()
	for i := uint64(0); i < k; i++ {
		pc := 0x1000 + 4*i
		b.UpdateDirection(pc, true)
		b.UpdateDirection(pc, true) // a repeat write adds no entry
		b.UpdateIndirect(pc, pc+0x200)
		b.PushRSB(pc + 5)
	}
	var s State
	b.Save(&s)
	for _, tab := range []struct {
		name string
		n    int
	}{
		{"pht", s.pht.Len()},
		{"indirect", s.indirect.Len()},
		{"rsb", s.rsb.Len()},
	} {
		if tab.n != k {
			t.Errorf("%s: saved %d entries after training %d, want %d", tab.name, tab.n, k, k)
		}
	}

	c := newBPU()
	c.UpdateIndirect(0x9000, 0x1) // touched here, absent from s: Restore must clear it
	c.Restore(&s)
	var got State
	c.Save(&got)
	if !reflect.DeepEqual(got, s) {
		t.Errorf("restored state differs from the snapshot:\n got %+v\nwant %+v", got, s)
	}
	if _, ok := c.PredictIndirect(0x9000); ok {
		t.Error("entry touched only after the snapshot survived Restore")
	}
	for i := uint64(0); i < k; i++ {
		pc := 0x1000 + 4*i
		if !c.PredictDirection(pc) {
			t.Errorf("pc %#x: trained direction lost in Restore", pc)
		}
		if tgt, ok := c.PredictIndirect(pc); !ok || tgt != pc+0x200 {
			t.Errorf("pc %#x: indirect target %#x, %v after Restore", pc, tgt, ok)
		}
	}
}
