// Package bpu models the branch prediction unit: a gshare direction
// predictor, a branch target buffer, an indirect-target predictor, and a
// return stack buffer. The transient-execution attacks depend on real
// predictor state: Spectre-v1 setup mistrains the direction predictor,
// and the variant-2 attack exploits a secret encoded in the indirect
// predictor by earlier authorized executions.
package bpu

// Config sizes the predictor structures.
type Config struct {
	// GshareBits is the log2 size of the pattern history table.
	GshareBits uint
	// BTBEntries and IndirectEntries size the target predictors
	// (direct-mapped, power of two).
	BTBEntries      int
	IndirectEntries int
	// RSBDepth is the return stack depth.
	RSBDepth int
	// HistoryBits is the global-history length folded into the gshare
	// index.
	HistoryBits uint
}

// DefaultConfig mirrors a modest Skylake-class predictor. HistoryBits
// is zero — a bimodal, PC-indexed direction predictor — so that
// in-place mistraining (calling the victim through the attack's own
// code path with benign arguments) reliably aliases the attacked
// branch, as the paper's Spectre-style setups assume. Set HistoryBits
// nonzero for a gshare predictor.
func DefaultConfig() Config {
	return Config{
		GshareBits:      14,
		BTBEntries:      4096,
		IndirectEntries: 1024,
		RSBDepth:        16,
		HistoryBits:     0,
	}
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// BPU is one hardware thread's branch prediction unit. On real Intel
// parts some predictor state is competitively shared across SMT threads;
// the model gives each thread its own instance, which is sufficient for
// the paper's single-thread mistraining attacks.
type BPU struct {
	cfg      Config
	pht      table[uint8] // 2-bit saturating counters
	history  uint64
	btb      table[btbEntry]
	indirect table[btbEntry]
	rsb      table[uint64]
	rsbTop   int

	// Stats
	DirectionLookups uint64
	DirectionMisses  uint64
}

// table is one predictor array plus the entries ever written to it, in
// first-write order, with their membership index. Save, Restore and
// Reset walk only those entries, so a workload that trains a dozen
// branches snapshots a dozen entries instead of ~140 KB of tables.
type table[E any] struct {
	e         []E
	init      E // every entry's value in a new predictor
	touched   []int32
	istouched []bool
}

func newTable[E any](n int, init E) table[E] {
	t := table[E]{e: make([]E, n), init: init, istouched: make([]bool, n)}
	for i := range t.e {
		t.e[i] = init
	}
	return t
}

// set writes entry i, recording it as touched.
func (t *table[E]) set(i uint64, v E) {
	t.e[i] = v
	if !t.istouched[i] {
		t.istouched[i] = true
		t.touched = append(t.touched, int32(i))
	}
}

// tableState is a sparse snapshot of one table: its size, and the
// touched indices with their values.
type tableState[E any] struct {
	n    int
	idx  []int32
	vals []E
}

func (t *table[E]) save(s *tableState[E]) {
	s.n = len(t.e)
	s.idx = append(s.idx[:0], t.touched...)
	s.vals = s.vals[:0]
	for _, i := range t.touched {
		s.vals = append(s.vals, t.e[i])
	}
}

// restore returns every touched entry to its initial value, then
// writes back the snapshot's entries, whose indices become the touched
// list.
func (t *table[E]) restore(s *tableState[E]) {
	for _, i := range t.touched {
		t.e[i] = t.init
		t.istouched[i] = false
	}
	t.touched = t.touched[:0]
	for k, i := range s.idx {
		t.set(uint64(i), s.vals[k])
	}
}

// New builds a predictor.
func New(cfg Config) *BPU {
	return &BPU{
		cfg:      cfg,
		pht:      newTable[uint8](1<<cfg.GshareBits, 1), // weakly not-taken
		btb:      newTable[btbEntry](cfg.BTBEntries, btbEntry{}),
		indirect: newTable[btbEntry](cfg.IndirectEntries, btbEntry{}),
		rsb:      newTable[uint64](cfg.RSBDepth, 0),
	}
}

// Config returns the predictor configuration.
func (b *BPU) Config() Config { return b.cfg }

func (b *BPU) phtIndex(pc uint64) uint64 {
	h := b.history & ((1 << b.cfg.HistoryBits) - 1)
	return (pc ^ h) & ((1 << b.cfg.GshareBits) - 1)
}

// PredictDirection predicts taken/not-taken for the conditional branch
// at pc.
func (b *BPU) PredictDirection(pc uint64) bool {
	b.DirectionLookups++
	return b.pht.e[b.phtIndex(pc)] >= 2
}

// UpdateDirection trains the direction predictor with the resolved
// outcome and advances global history.
func (b *BPU) UpdateDirection(pc uint64, taken, mispredicted bool) {
	if mispredicted {
		b.DirectionMisses++
	}
	idx := b.phtIndex(pc)
	c := b.pht.e[idx]
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	b.pht.set(idx, c)
	b.history = b.history<<1 | boolBit(taken)
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the direct branch at pc.
func (b *BPU) PredictTarget(pc uint64) (uint64, bool) {
	e := &b.btb.e[pc%uint64(len(b.btb.e))]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateTarget trains the BTB.
func (b *BPU) UpdateTarget(pc, target uint64) {
	b.btb.set(pc%uint64(len(b.btb.e)), btbEntry{pc: pc, target: target, valid: true})
}

// PredictIndirect consults the indirect-target predictor for the
// indirect branch/call at pc. A hit steers fetch — and hence micro-op
// cache fill — to the predicted target before the branch executes,
// which is the footprint the variant-2 attack observes.
func (b *BPU) PredictIndirect(pc uint64) (uint64, bool) {
	e := &b.indirect.e[pc%uint64(len(b.indirect.e))]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateIndirect trains the indirect predictor with the resolved target.
func (b *BPU) UpdateIndirect(pc, target uint64) {
	b.indirect.set(pc%uint64(len(b.indirect.e)), btbEntry{pc: pc, target: target, valid: true})
}

// PushRSB records a return address at a call.
func (b *BPU) PushRSB(ret uint64) {
	b.rsb.set(uint64(b.rsbTop%len(b.rsb.e)), ret)
	b.rsbTop++
}

// PopRSB predicts the target of a return.
func (b *BPU) PopRSB() (uint64, bool) {
	if b.rsbTop == 0 {
		return 0, false
	}
	b.rsbTop--
	return b.rsb.e[b.rsbTop%len(b.rsb.e)], true
}

// State is a sparse snapshot of a predictor's dynamic contents: only
// the table entries ever written are stored, so its cost scales with
// the branches a workload trained, not with the table sizes. Backing
// arrays are recycled across Save calls, and a snapshot only restores
// into a BPU built with the same table sizes.
type State struct {
	pht        tableState[uint8]
	btb        tableState[btbEntry]
	indirect   tableState[btbEntry]
	rsb        tableState[uint64]
	history    uint64
	rsbTop     int
	dirLookups uint64
	dirMisses  uint64
}

// Save copies the predictor state into s, reusing s's buffers.
func (b *BPU) Save(s *State) {
	b.pht.save(&s.pht)
	b.btb.save(&s.btb)
	b.indirect.save(&s.indirect)
	b.rsb.save(&s.rsb)
	s.history = b.history
	s.rsbTop = b.rsbTop
	s.dirLookups = b.DirectionLookups
	s.dirMisses = b.DirectionMisses
}

// Restore overwrites the predictor state from s in O(entries touched
// here or in s). It panics if s was saved from a predictor with
// different table sizes.
func (b *BPU) Restore(s *State) {
	if s.pht.n != len(b.pht.e) || s.btb.n != len(b.btb.e) ||
		s.indirect.n != len(b.indirect.e) || s.rsb.n != len(b.rsb.e) {
		panic("bpu: Restore from a checkpoint with different geometry")
	}
	b.pht.restore(&s.pht)
	b.btb.restore(&s.btb)
	b.indirect.restore(&s.indirect)
	b.rsb.restore(&s.rsb)
	b.history = s.history
	b.rsbTop = s.rsbTop
	b.DirectionLookups = s.dirLookups
	b.DirectionMisses = s.dirMisses
}

// Reset clears all predictor state, leaving the BPU equal to a new one:
// it is Restore from an empty snapshot.
func (b *BPU) Reset() {
	b.Restore(&State{
		pht:      tableState[uint8]{n: len(b.pht.e)},
		btb:      tableState[btbEntry]{n: len(b.btb.e)},
		indirect: tableState[btbEntry]{n: len(b.indirect.e)},
		rsb:      tableState[uint64]{n: len(b.rsb.e)},
	})
}
