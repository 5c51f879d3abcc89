// Package bpu models the branch prediction unit: a bimodal direction
// predictor, an indirect-target predictor, and a return stack buffer.
// There is no BTB: the fetch engine takes a direct branch's target
// from the decoded instruction. The transient-execution attacks depend on real
// predictor state: Spectre-v1 setup mistrains the direction predictor,
// and the variant-2 attack exploits a secret encoded in the indirect
// predictor by earlier authorized executions.
//
// The direction predictor is a table of 2-bit counters indexed by the
// branch PC alone, with no global history, so in-place mistraining
// (calling the victim through the attack's own code path with benign
// arguments) reliably aliases the attacked branch, as the paper's
// Spectre-style setups assume. The indirect predictor is direct-mapped
// and tagged with the full PC.
package bpu

import "deaduops/internal/rows"

// The table sizes of a modest Skylake-class predictor.
const (
	// PHTBits is the log2 size of the direction predictor's pattern
	// history table.
	PHTBits = 14
	// IndirectEntries sizes the indirect-target predictor.
	IndirectEntries = 1024
	// RSBDepth is the return stack depth.
	RSBDepth = 16
)

type targetEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// BPU is one hardware thread's branch prediction unit. On real Intel
// parts some predictor state is competitively shared across SMT threads;
// the model gives each thread its own instance, which is sufficient for
// the paper's single-thread mistraining attacks.
type BPU struct {
	// The three tables are rows.Tables of one-entry rows, so Save,
	// Restore and Reset walk only the entries a workload trained.
	pht      rows.Table[uint8] // 2-bit saturating counters
	indirect rows.Table[targetEntry]
	rsb      rows.Table[uint64]
	rsbTop   int
}

// New builds a predictor.
func New() *BPU {
	return &BPU{
		pht:      rows.NewFilled[uint8](1<<PHTBits, 1, 1), // weakly not-taken
		indirect: rows.New[targetEntry](IndirectEntries, 1),
		rsb:      rows.New[uint64](RSBDepth, 1),
	}
}

func phtIndex(pc uint64) uint64 { return pc & (1<<PHTBits - 1) }

// PredictDirection predicts taken/not-taken for the conditional branch
// at pc.
func (b *BPU) PredictDirection(pc uint64) bool {
	return b.pht.All()[phtIndex(pc)] >= 2
}

// UpdateDirection trains the direction predictor with the resolved
// outcome.
func (b *BPU) UpdateDirection(pc uint64, taken bool) {
	idx := phtIndex(pc)
	b.pht.Mark(int(idx))
	c := &b.pht.All()[idx]
	if taken && *c < 3 {
		*c++
	} else if !taken && *c > 0 {
		*c--
	}
}

// PredictIndirect consults the indirect-target predictor for the
// indirect branch/call at pc. A hit steers fetch — and hence micro-op
// cache fill — to the predicted target before the branch executes,
// which is the footprint the variant-2 attack observes.
func (b *BPU) PredictIndirect(pc uint64) (uint64, bool) {
	ind := b.indirect.All()
	e := &ind[pc%uint64(len(ind))]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateIndirect trains the indirect predictor with the resolved target.
func (b *BPU) UpdateIndirect(pc, target uint64) {
	ind := b.indirect.All()
	i := pc % uint64(len(ind))
	b.indirect.Mark(int(i))
	ind[i] = targetEntry{pc: pc, target: target, valid: true}
}

// PushRSB records a return address at a call.
func (b *BPU) PushRSB(ret uint64) {
	rsb := b.rsb.All()
	i := b.rsbTop % len(rsb)
	b.rsb.Mark(i)
	rsb[i] = ret
	b.rsbTop++
}

// PopRSB predicts the target of a return.
func (b *BPU) PopRSB() (uint64, bool) {
	if b.rsbTop == 0 {
		return 0, false
	}
	b.rsbTop--
	rsb := b.rsb.All()
	return rsb[b.rsbTop%len(rsb)], true
}

// State is a sparse snapshot of a predictor's dynamic contents: only
// the table entries ever written are stored, so its cost scales with
// the branches a workload trained, not with the table sizes. Backing
// arrays are recycled across Save calls.
type State struct {
	pht      rows.State[uint8]
	indirect rows.State[targetEntry]
	rsb      rows.State[uint64]
	rsbTop   int
}

// Save copies the predictor state into s, reusing s's buffers.
func (b *BPU) Save(s *State) {
	b.pht.Save(&s.pht)
	b.indirect.Save(&s.indirect)
	b.rsb.Save(&s.rsb)
	s.rsbTop = b.rsbTop
}

// Restore overwrites the predictor state from s in O(entries touched
// here or in s).
func (b *BPU) Restore(s *State) {
	b.pht.Restore(&s.pht)
	b.indirect.Restore(&s.indirect)
	b.rsb.Restore(&s.rsb)
	b.rsbTop = s.rsbTop
}

// Reset clears all predictor state in O(entries touched), leaving the
// BPU equal to a new one.
func (b *BPU) Reset() {
	b.pht.Reset()
	b.indirect.Reset()
	b.rsb.Reset()
	b.rsbTop = 0
}
