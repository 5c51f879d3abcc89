// Package cpu assembles the whole simulated core: two hardware threads
// (SMT contexts), each with a fetch engine and a backend, sharing the
// micro-op cache (per the configured partitioning policy), the cache
// hierarchy, and guest data memory. It exposes the host-facing API the
// characterization experiments and attacks drive: load a program, run a
// thread (or two threads simultaneously), and read timing and
// performance counters.
package cpu

import (
	"fmt"
	"maps"

	"deaduops/internal/asm"
	"deaduops/internal/backend"
	"deaduops/internal/bpu"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
	"deaduops/internal/profile"
	"deaduops/internal/rows"
	"deaduops/internal/uopcache"
)

// NumThreads is the number of SMT contexts per core.
const NumThreads = 2

// The guest layout every core shares (the kernel image sits at
// isa.KernelEntry).
const (
	// MemSize is the guest data memory size in bytes.
	MemSize = 1 << 22
	// StackTop seeds thread 0's R15; each later thread's stack starts
	// StackSpacing bytes lower.
	StackTop     = 1 << 22
	StackSpacing = 1 << 16
)

// Mitigation selects a §VIII countermeasure against micro-op cache
// leakage.
type Mitigation int

const (
	// MitigationNone leaves the micro-op cache unprotected (baseline).
	MitigationNone Mitigation = iota
	// MitigationFlushOnPrivilegeSwitch flushes the entire micro-op
	// cache at every user↔kernel crossing (the iTLB-flush approach the
	// paper notes SGX already takes at enclave boundaries).
	MitigationFlushOnPrivilegeSwitch
	// MitigationPrivilegePartition statically partitions the cache
	// between user and kernel domains.
	MitigationPrivilegePartition
)

// String implements fmt.Stringer.
func (m Mitigation) String() string {
	switch m {
	case MitigationNone:
		return "none"
	case MitigationFlushOnPrivilegeSwitch:
		return "flush-on-switch"
	case MitigationPrivilegePartition:
		return "privilege-partition"
	default:
		return fmt.Sprintf("mitigation(%d)", int(m))
	}
}

// Config assembles a core configuration.
type Config struct {
	UopCache uopcache.Config
	Frontend frontend.Config
	Backend  backend.Config
	// Mitigation enables a §VIII countermeasure.
	Mitigation Mitigation
	// DisableCycleSkip turns off the event-driven fast path that
	// advances the clock in one step over cycles in which every unit is
	// provably idle (stall countdowns, in-flight memory latency, drain
	// tails). The fast path is semantically invisible — cycle counts,
	// counters, and all measured timings are bit-identical either way
	// (TestSkipCyclesEquivalence) — so it defaults to on; disabling it
	// exists for equivalence testing and baseline benchmarks.
	DisableCycleSkip bool
}

// FromProfile assembles a core configuration for one registered
// front-end profile: the profile owns the DSB geometry and decode
// path. Everything behind the front end (IDQ, memory hierarchy,
// backend widths, BPU) is one fixed machine whose sizes are constants
// of those packages.
func FromProfile(p profile.Profile) Config {
	return Config{UopCache: p.UopCache, Frontend: frontend.Config{Decode: p.Decode}}
}

// Intel returns the default Skylake/Coffee Lake-like configuration the
// paper characterizes.
func Intel() Config { return FromProfile(profile.Skylake()) }

// AMD returns an AMD Zen-like configuration: competitively shared
// micro-op cache and 8-wide decode (the decoders themselves stay
// Skylake's; see profile.Zen).
func AMD() Config { return FromProfile(profile.Zen()) }

// Memory is the guest data memory: a flat little-endian byte image.
// Out-of-image accesses read zero and drop writes (no faults are
// modelled; transient wild accesses are harmless).
type Memory struct {
	// data is the image, a prefix of pages' backing array.
	data []byte
	// pages holds the image in 4 KiB rows; writes mark their pages, so
	// Save, Restore and Reset copy only the pages a workload wrote,
	// keeping checkpoint cost proportional to its data footprint
	// instead of the 4 MiB image.
	pages rows.Table[byte]
}

// NewMemory allocates a guest memory image.
func NewMemory(size int) *Memory {
	const page = 1 << memPageShift
	m := &Memory{pages: rows.New[byte]((size+page-1)/page, page)}
	m.data = m.pages.All()[:size]
	return m
}

// Arena recycles a core's large, configuration-independent structures
// across the sequence of CPUs one sweep worker builds: the guest memory
// image (4 MiB at the default configuration), the cache hierarchy's
// five levels (the LLC alone is 131k lines) and both threads' branch
// predictors. Each keeps its contents in internal/rows tables, so it
// is reset in O(state the previous core touched) — written pages,
// filled sets, trained predictor entries — instead of being allocated
// and zeroed again. None of them depends on the core's configuration,
// so an arena always recycles them. An arena must never be
// shared between goroutines: parsweep gives each pool worker its own
// via its per-worker setup hook, so a 150-point sweep on 8 workers
// builds 8 sets of these structures instead of 150. The zero value is
// ready to use, and a nil *Arena degrades to plain allocation.
type Arena struct {
	m    *Memory
	hier *mem.Hierarchy
	bps  [NumThreads]*bpu.BPU
	// cks is the arena's pool of reusable checkpoint buffers: a sweep
	// worker that snapshots one primed core per point checkpoints into
	// the same backing arrays every time (see CheckpointBuf).
	cks []*Checkpoint
}

// CheckpointBuf returns the arena's i-th reusable checkpoint buffer,
// growing the pool on demand. Checkpoint buffers keep their backing
// arrays across points, so repeated Checkpoint calls into the same
// buffer are O(state-size) copies with no steady-state allocation. A
// nil arena degrades to a fresh buffer per call.
func (a *Arena) CheckpointBuf(i int) *Checkpoint {
	if a == nil {
		return &Checkpoint{}
	}
	for len(a.cks) <= i {
		a.cks = append(a.cks, &Checkpoint{})
	}
	return a.cks[i]
}

// memory returns a zeroed guest image, reusing the arena's. Reuse
// re-zeroes only the pages the previous core wrote, so recycling a
// 4 MiB image costs a few page clears, not a 4 MiB sweep.
func (a *Arena) memory() *Memory {
	if a == nil {
		return NewMemory(MemSize)
	}
	if a.m == nil {
		a.m = NewMemory(MemSize)
	} else {
		a.m.pages.Reset()
	}
	return a.m
}

// hierarchy returns an empty cache hierarchy, reusing the arena's.
// Reuse resets only the sets the previous core touched and drops its
// hooks.
func (a *Arena) hierarchy() *mem.Hierarchy {
	if a == nil {
		return mem.NewHierarchy()
	}
	if a.hier == nil {
		a.hier = mem.NewHierarchy()
	} else {
		a.hier.Reset()
	}
	return a.hier
}

// predictor returns thread t's untrained branch predictor, reusing
// the arena's. Reuse resets only the entries the previous core wrote.
func (a *Arena) predictor(t int) *bpu.BPU {
	if a == nil {
		return bpu.New()
	}
	if a.bps[t] == nil {
		a.bps[t] = bpu.New()
	} else {
		a.bps[t].Reset()
	}
	return a.bps[t]
}

// memPageShift sizes the write-tracking granule (4 KiB pages). The
// guest image is MemSize bytes (4 MiB) but a workload
// writes a handful of pages; tracking which ones lets Save/Restore
// copy kilobytes instead of the whole image.
const memPageShift = 12

// markDirty records that [addr, addr+n) was written. Out-of-range
// bytes are ignored, mirroring Write's clamping.
func (m *Memory) markDirty(addr uint64, n int) {
	if n <= 0 || addr >= uint64(len(m.data)) {
		return
	}
	end := addr + uint64(n) - 1
	if end >= uint64(len(m.data)) {
		end = uint64(len(m.data)) - 1
	}
	for p := addr >> memPageShift; p <= end>>memPageShift; p++ {
		m.pages.Mark(int(p))
	}
}

// Read implements backend.Memory.
func (m *Memory) Read(addr uint64, size int) int64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if a < uint64(len(m.data)) {
			v |= uint64(m.data[a]) << (8 * i)
		}
	}
	if size == 1 {
		return int64(uint8(v))
	}
	return int64(v)
}

// Write implements backend.Memory.
func (m *Memory) Write(addr uint64, size int, v int64) {
	m.markDirty(addr, size)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if a < uint64(len(m.data)) {
			m.data[a] = byte(v >> (8 * i))
		}
	}
}

// WriteBytes copies b into guest memory at addr. Bytes past the
// image end are dropped, as in Write.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	m.markDirty(addr, len(b))
	if addr < uint64(len(m.data)) {
		copy(m.data[addr:], b)
	}
}

// MemoryState is a sparse snapshot of the guest image: only written
// pages are stored, so its cost scales with the workload's data
// footprint, not MemSize. Buffers are recycled across Save calls.
type MemoryState struct {
	size  int
	pages rows.State[byte]
}

// Save copies every written page into s, reusing s's buffers.
func (m *Memory) Save(s *MemoryState) {
	s.size = len(m.data)
	m.pages.Save(&s.pages)
}

// Restore overwrites the guest image from s in O(pages written here
// or in s), not O(MemSize). It panics if s was saved from an image of
// a different size.
func (m *Memory) Restore(s *MemoryState) {
	if s.size != len(m.data) {
		panic("cpu: Restore into a memory of a different size")
	}
	m.pages.Restore(&s.pages)
}

// ReadBytes copies n bytes of guest memory at addr. Bytes past the
// image end read zero, as in Read.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	if addr < uint64(len(m.data)) {
		copy(out, m.data[addr:])
	}
	return out
}

// thread is one SMT context.
type thread struct {
	fe  *frontend.FrontEnd
	be  *backend.Backend
	bp  *bpu.BPU
	ctr *perfctr.Counters
}

// CPU is the simulated core.
type CPU struct {
	cfg     Config
	uc      *uopcache.Cache
	hier    *mem.Hierarchy
	mem     *Memory
	memo    *frontend.Memo
	threads [NumThreads]*thread
	cycle   uint64
	// codeOwner maps each code line to the image that last put code in
	// it (LoadProgram). It is replaced, never written, so checkpoints
	// share it.
	codeOwner map[uint64]*asm.Program
}

// New builds a core.
func New(cfg Config) *CPU { return NewWith(cfg, nil) }

// NewWith builds a core like New, drawing the guest memory image, the
// cache hierarchy and the branch predictors from arena (which may be
// nil). The returned CPU owns those structures until the next NewWith
// call on the same arena, which resets them for the next core, so at
// most one CPU per arena may be live at a time — exactly the shape of
// a sweep worker that builds, measures, and discards one core per
// point. Every hook is installed afresh, so a core built on recycled
// structures behaves exactly like one built on new ones.
func NewWith(cfg Config, arena *Arena) *CPU {
	c := &CPU{
		cfg:  cfg,
		uc:   uopcache.New(cfg.UopCache),
		hier: arena.hierarchy(),
		mem:  arena.memory(),
	}
	if cfg.Mitigation == MitigationPrivilegePartition {
		c.uc.PartitionByDomain()
	}
	// Inclusion hooks: an L1I eviction invalidates the matching
	// micro-op cache lines; an iTLB flush empties it.
	c.hier.L1I().SetEvictHook(func(lineAddr uint64) {
		c.uc.InvalidateCodeLine(lineAddr, mem.LineSize)
	})
	c.hier.SetITLBFlushHook(func() { c.uc.FlushAll() })

	// One decode memo per core: both threads decode the same code
	// image through the same decoders.
	c.memo = frontend.NewMemo(cfg.Frontend.Decode, cfg.UopCache)
	for t := 0; t < NumThreads; t++ {
		ctr := &perfctr.Counters{}
		bp := arena.predictor(t)
		fe := frontend.New(cfg.Frontend, t, c.uc, c.hier, bp, ctr, c.memo)
		be := backend.New(cfg.Backend, fe, bp, c.hier, c.mem, ctr)
		be.SetReg(isa.R15, int64(StackTop-t*StackSpacing))
		switch cfg.Mitigation {
		case MitigationFlushOnPrivilegeSwitch:
			be.OnPrivilegeSwitch = func(bool) { c.uc.FlushAll() }
		case MitigationPrivilegePartition:
			tid := t
			be.OnPrivilegeSwitch = func(kernel bool) {
				d := 0
				if kernel {
					d = 1
				}
				c.uc.SetDomain(tid, d)
			}
		}
		c.threads[t] = &thread{fe: fe, be: be, bp: bp, ctr: ctr}
	}
	return c
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// UopCache exposes the micro-op cache for inspection and experiments.
func (c *CPU) UopCache() *uopcache.Cache { return c.uc }

// DecodeMemo exposes the core's decode memo for inspection.
func (c *CPU) DecodeMemo() *frontend.Memo { return c.memo }

// Hierarchy exposes the cache hierarchy.
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Mem exposes guest data memory.
func (c *CPU) Mem() *Memory { return c.mem }

// BPU returns thread t's branch predictors.
func (c *CPU) BPU(t int) *bpu.BPU { return c.threads[t].bp }

// Counters returns thread t's performance counters.
func (c *CPU) Counters(t int) *perfctr.Counters { return c.threads[t].ctr }

// Backend returns thread t's backend (register access for test setup).
func (c *CPU) Backend(t int) *backend.Backend { return c.threads[t].be }

// Cycle returns the global cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// LoadProgram installs the code image on both threads' fetch engines.
// Loading a different image empties the core's decode memo and counts
// as a code write: each code line the new image maps code into is
// compared with the image that last put code there, and loses its
// micro-op cache lines when the two differ in it, as those lines would
// otherwise stream the older code. Lines the new image maps no code
// into stay resident (the Fig 5 and Fig 8 loops alternate images at
// disjoint addresses and rely on it).
func (c *CPU) LoadProgram(p *asm.Program) {
	owner, cloned := c.codeOwner, false
	for _, in := range p.Insts {
		line := in.Addr &^ (mem.LineSize - 1)
		prev := owner[line]
		if prev == p {
			continue
		}
		if !cloned {
			// Checkpoints share the table, so it is replaced, never
			// written in place.
			owner, cloned = maps.Clone(owner), true
			if owner == nil {
				owner = make(map[uint64]*asm.Program)
			}
		}
		owner[line] = p
		if prev != nil && !sameLine(prev, p, line) {
			c.uc.InvalidateCodeLine(line, mem.LineSize)
		}
	}
	c.codeOwner = owner
	for _, t := range c.threads {
		t.fe.SetProgram(p)
	}
}

// sameLine reports whether images a and b map the same instructions
// into the code line at line.
func sameLine(a, b *asm.Program, line uint64) bool {
	for addr := line; addr < line+mem.LineSize; addr++ {
		x, y := a.At(addr), b.At(addr)
		if x != y && (x == nil || y == nil || *x != *y) {
			return false
		}
	}
	return true
}

// SetReg sets an architectural register of thread t before a run.
func (c *CPU) SetReg(t int, r isa.Reg, v int64) { c.threads[t].be.SetReg(r, v) }

// Reg reads an architectural register of thread t.
func (c *CPU) Reg(t int, r isa.Reg) int64 { return c.threads[t].be.Reg(r) }

// RunResult summarizes one run.
type RunResult struct {
	Cycles   uint64
	Retired  uint64
	Counters perfctr.Snapshot
	// TimedOut reports the run hit maxCycles before HALT.
	TimedOut bool
}

// Run executes thread t from entry until it retires HALT or maxCycles
// elapse. The micro-op cache, caches, predictors, registers, and guest
// memory persist across runs — the attacks depend on that persistence.
// In single-thread runs the micro-op cache operates unpartitioned.
func (c *CPU) Run(t int, entry uint64, maxCycles uint64) RunResult {
	var entries [NumThreads]uint64
	entries[t] = entry
	return c.run(t, t+1, entries, maxCycles)[t]
}

// RunSMT executes both threads simultaneously from their entries until
// thread 0 retires HALT or maxCycles elapse; thread 1 acts as a
// background workload that idles once it halts (the Fig 6/7 co-runner
// setups, where the sibling spins on PAUSE or pointer chasing for the
// duration of the measured thread). Under Intel's policy the micro-op
// cache is statically partitioned for the duration; under AMD's it is
// competitively shared. The shared decoders are modelled by
// alternating MITE access between threads cycle by cycle.
func (c *CPU) RunSMT(entryA, entryB uint64, maxCycles uint64) [NumThreads]RunResult {
	return c.run(0, NumThreads, [NumThreads]uint64{entryA, entryB}, maxCycles)
}

// run is the cycle loop behind Run and RunSMT. Threads lo through hi-1
// are live; thread lo is the primary, whose HALT ends the run. A live
// thread that halts before the primary idles for the rest of the run,
// and its Cycles stop at its own HALT.
func (c *CPU) run(lo, hi int, entries [NumThreads]uint64, maxCycles uint64) [NumThreads]RunResult {
	smt := hi-lo > 1
	c.uc.SetSMTMode(smt)
	var before [NumThreads]perfctr.Snapshot
	var beforeRet, end [NumThreads]uint64
	for t := lo; t < hi; t++ {
		th := c.threads[t]
		before[t] = th.ctr.Snapshot()
		beforeRet[t] = th.be.Retired()
		th.be.Reset(entries[t])
	}
	pt := c.threads[lo]
	start := c.cycle
	// SMT decoder arbitration keys off absolute cycle parity (miteTurn),
	// which a jump would break, so only single-thread runs skip.
	skip := !smt && !c.cfg.DisableCycleSkip
	for !pt.be.Halted() && c.cycle-start < maxCycles {
		c.cycle++
		for t := lo; t < hi; t++ {
			th := c.threads[t]
			if th.be.Halted() {
				continue
			}
			th.ctr.Inc(perfctr.Cycles)
			// Decoders are shared between SMT threads: only one thread
			// may occupy the legacy decode pipeline per cycle.
			if !smt || c.miteTurn(t) || !c.inMITE(t) {
				th.fe.Tick()
			}
			th.be.Tick(c.cycle)
			if th.be.Halted() {
				end[t] = c.cycle
			}
		}
		if !skip || pt.be.Halted() {
			continue
		}
		// Event-driven fast path: when both units report the next k
		// cycles are provably dead (stall countdowns, waits on known
		// completion times, or idling that only the other unit can end),
		// advance the clock over them in one step. Each unit's bound
		// carries the proof that its skipped Ticks would have been
		// no-ops beyond deterministic counter effects, which ApplySkip
		// replays — so cycle counts and every counter are bit-identical
		// to the ticked execution.
		k := pt.fe.SkipBound()
		if b := pt.be.SkipBound(c.cycle); b < k {
			k = b
		}
		if budget := maxCycles - (c.cycle - start); k > budget {
			// Idle past the run budget (possibly forever — a stuck
			// thread): fast-forward straight to the timeout.
			k = budget
		}
		if k == 0 {
			continue
		}
		c.cycle += k
		pt.ctr.Add(perfctr.Cycles, k)
		pt.ctr.Add(perfctr.SkippedCycles, k)
		pt.fe.ApplySkip(k)
	}
	var out [NumThreads]RunResult
	for t := lo; t < hi; t++ {
		th := c.threads[t]
		if end[t] == 0 {
			end[t] = c.cycle
		}
		out[t] = RunResult{
			Cycles:   end[t] - start,
			Retired:  th.be.Retired() - beforeRet[t],
			Counters: th.ctr.Snapshot().Delta(before[t]),
			TimedOut: !th.be.Halted(),
		}
	}
	c.uc.SetSMTMode(false)
	return out
}

// miteTurn reports whether thread t owns the shared decoders this
// cycle.
func (c *CPU) miteTurn(t int) bool { return int(c.cycle)&1 == t }

// inMITE reports whether thread t's fetch engine is currently decoding
// through the legacy pipeline.
func (c *CPU) inMITE(t int) bool { return c.threads[t].fe.InMITE() }

// FlushUopCache empties the micro-op cache (mitigation experiments).
func (c *CPU) FlushUopCache() { c.uc.FlushAll() }

// String summarizes the core configuration.
func (c *CPU) String() string {
	uc := c.cfg.UopCache
	return fmt.Sprintf("cpu{uopcache %d sets × %d ways × %d µops (%s)}",
		uc.Sets, uc.Ways, uc.SlotsPerLine, uc.SMT)
}
