// Checkpoint/Restore: deep snapshots of the whole core, taken between
// runs. Everything that persists across runs is captured — both SMT
// contexts' architectural state (registers, flags, privilege mode,
// syscall return stacks), predictor state, the micro-op cache with
// per-line hotness, all five cache-hierarchy levels including the
// iTLB, performance counters, the global cycle clock, the guest
// memory image, and which image last put code in each code line. Everything that does NOT persist (in-flight ROB
// entries, pending fetch state, the IDQ) is deliberately absent:
// Run's entry sequence (Backend.Reset → FrontEnd.Redirect) discards
// it before the first tick, so a core restored from a checkpoint is
// bit-identical, in every subsequent run, to the core the checkpoint
// was taken from.
//
// The large structures — guest memory, the cache levels, the
// predictors and the micro-op cache — keep their contents in
// internal/rows tables, the one place touched state is tracked, so a
// snapshot and a restore copy only the rows a workload wrote.
//
// Restores never rewire hooks. The L1I-inclusion, iTLB-flush, and
// privilege-switch closures installed by NewWith belong to the live
// core and keep pointing at its own structures — a checkpoint is pure
// state, so one snapshot can fork into any number of same-config
// cores (or the same core repeatedly) without aliasing.
package cpu

import (
	"deaduops/internal/asm"
	"deaduops/internal/backend"
	"deaduops/internal/bpu"
	"deaduops/internal/frontend"
	"deaduops/internal/perfctr"
	"deaduops/internal/uopcache"

	"deaduops/internal/mem"
)

// threadState is one SMT context's slice of a checkpoint.
type threadState struct {
	bp  bpu.State
	ctr perfctr.Snapshot
	be  backend.State
	fe  frontend.State
}

// Checkpoint is a reusable snapshot buffer. The zero value is ready;
// repeated Checkpoint calls into the same buffer recycle its backing
// arrays, so a sweep worker pays steady-state zero allocation per
// snapshot (draw buffers from Arena.CheckpointBuf to share them
// across points). A Checkpoint must not be shared between goroutines.
type Checkpoint struct {
	valid   bool
	cycle   uint64
	prog    *asm.Program
	owner   map[uint64]*asm.Program
	mem     MemoryState
	uc      uopcache.State
	hier    mem.HierarchyState
	threads [NumThreads]threadState
}

// Valid reports whether ck holds a snapshot.
func (ck *Checkpoint) Valid() bool { return ck != nil && ck.valid }

// Checkpoint deep-snapshots the core into dst, copying only the rows
// of guest memory, caches and predictors the workload touched (see
// internal/rows). Call it only between runs (Run and RunSMT are
// synchronous, so any call site outside them qualifies). The program
// pointer is captured by reference — code images are immutable once
// loaded — and so is the table of which image last put code in each
// code line, which LoadProgram replaces instead of writing.
func (c *CPU) Checkpoint(dst *Checkpoint) {
	dst.cycle = c.cycle
	dst.prog = c.threads[0].fe.Program()
	dst.owner = c.codeOwner
	c.mem.Save(&dst.mem)
	c.uc.Save(&dst.uc)
	c.hier.Save(&dst.hier)
	for t, th := range c.threads {
		th.bp.Save(&dst.threads[t].bp)
		dst.threads[t].ctr = th.ctr.Snapshot()
		th.be.Save(&dst.threads[t].be)
		th.fe.Save(&dst.threads[t].fe)
	}
	dst.valid = true
}

// Restore rehydrates the core from ck in O(touched-state): every copy
// lands in the core's existing structures, so restoring into a warm
// core allocates nothing. The target must have the same configuration
// as the checkpointed core: a geometry or memory-size mismatch panics
// in the structure's rows.Table or Memory.Restore. After Restore
// the core is quiescent — exactly the between-runs position of the
// original at snapshot time, including its absolute cycle clock, so
// RDTSC-bearing programs replay identically.
func (c *CPU) Restore(ck *Checkpoint) {
	if !ck.Valid() {
		panic("cpu: Restore from an empty checkpoint")
	}
	c.cycle = ck.cycle
	c.codeOwner = ck.owner
	c.mem.Restore(&ck.mem)
	c.uc.Restore(&ck.uc)
	c.hier.Restore(&ck.hier)
	for t, th := range c.threads {
		th.bp.Restore(&ck.threads[t].bp)
		th.ctr.Restore(ck.threads[t].ctr)
		th.be.Restore(&ck.threads[t].be)
		th.fe.Restore(&ck.threads[t].fe)
		if ck.prog != nil {
			th.fe.SetProgram(ck.prog)
		}
	}
}
