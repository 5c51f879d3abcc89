// Package backend models a simplified out-of-order execution engine:
// register renaming via dataflow dependencies, latency-accurate loads
// against the cache hierarchy, in-order retirement, branch resolution
// with squash, and the fence semantics the transient-execution attacks
// probe — LFENCE blocks issue of younger micro-ops but not fetch, while
// CPUID serializes fetch itself.
package backend

import (
	"deaduops/internal/bpu"
	"deaduops/internal/frontend"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/perfctr"
)

// Memory is the guest data memory the backend loads from and stores to.
type Memory interface {
	Read(addr uint64, size int) int64
	Write(addr uint64, size int, v int64)
}

// The Skylake-like pipeline widths, in µops per cycle unless noted.
const (
	// ROBSize is the reorder buffer's capacity in µops.
	ROBSize = 224
	// DispatchWidth is how many µops are renamed and allocated per cycle.
	DispatchWidth = 4
	// RetireWidth is how many µops retire per cycle.
	RetireWidth = 4
	// ExecPorts is how many µops issue to execution per cycle.
	ExecPorts = 8
	// MispredictPenalty is the fixed redirect bubble in cycles on a
	// squash, on top of the natural refetch latency.
	MispredictPenalty = 5
)

// ringSize is how many entry slots a Ring holds. The entry with
// sequence number s lives in slot s%ringSize, so a slot is rewritten
// ringSize dispatches after its last write. A consumer references only
// producers that were in the ROB when it dispatched, so it sits fewer
// than ROBSize sequence numbers after each of them; and when slot s is
// rewritten, the ROB's head is past s+ringSize-ROBSize. Every consumer
// of the old entry has therefore left the ROB whenever
// ringSize >= 2*ROBSize-1.
const ringSize = 512

// The ring invariant above, checked at compile time: a negative
// constant does not convert to uint.
const _ = uint(ringSize - (2*ROBSize - 1))

// Ring is the fixed home of one backend's in-flight entries. A
// recycled ring needs no reset: dispatch writes each slot before
// anything reads it.
type Ring [ringSize]entry

// Config selects the backend's speculation model.
type Config struct {
	// InvisibleSpeculation models the §VII invisible-speculation
	// defenses (InvisiSpec, SafeSpec, …): speculative loads read their
	// value without updating the cache hierarchy; the fill happens only
	// at retirement. Squashed loads therefore leave no data-cache
	// footprint — which kills classic Spectre-v1's disclosure primitive
	// but, as the paper shows, not the micro-op cache's.
	InvisibleSpeculation bool
}

// entry is one in-flight micro-op.
type entry struct {
	uop isa.Uop

	// dataflow sources; nil when the operand comes from the
	// architectural register file at dispatch time.
	src1, src2, flagSrc, chain *entry
	// captured architectural operand values (valid when the matching
	// src pointer is nil).
	v1, v2  int64
	inFlags isa.Flags

	issued  bool
	done    bool
	readyAt uint64 // cycle the result becomes available

	// results
	val      int64
	outFlags isa.Flags
	wrFlags  bool
	memAddr  uint64
	memSize  int

	// branch resolution
	taken    bool
	target   uint64
	resolved bool
}

func (e *entry) writesReg() (isa.Reg, bool) {
	switch e.uop.Op {
	case isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.LOAD, isa.LOADB:
		return e.uop.Dst, e.uop.Dst != isa.NoReg
	case isa.RDTSC:
		if e.uop.Index == 0 {
			return e.uop.Dst, e.uop.Dst != isa.NoReg
		}
	case isa.CALL, isa.CALLI:
		if e.uop.Index == 0 {
			return isa.R15, true // push decrements the stack pointer
		}
	case isa.RET:
		if e.uop.Index == 1 {
			return isa.R15, true
		}
	}
	return isa.NoReg, false
}

func (e *entry) writesFlags() bool {
	if e.uop.Fused {
		return true
	}
	switch e.uop.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST:
		return true
	}
	return false
}

// Backend is one hardware thread's execution engine.
type Backend struct {
	cfg  Config
	fe   *frontend.FrontEnd
	bp   *bpu.BPU
	hier *mem.Hierarchy
	gmem Memory
	ctr  *perfctr.Counters

	// The ROB is the sequence range [head, tail) of slots. Consumers
	// read retired producers lazily (depVal at issue time), which the
	// ring's size keeps safe (see ringSize).
	slots      *Ring
	head, tail uint64
	regProd    [isa.NumRegs]*entry
	flagProd   *entry

	regs  [isa.NumRegs]int64
	flags isa.Flags

	kernelMode bool
	sysRet     []uint64

	// OnPrivilegeSwitch, if set, fires at every retired privilege
	// transition (mitigation hooks: flush or re-partition the micro-op
	// cache at domain crossings).
	OnPrivilegeSwitch func(kernel bool)
	// OnRetire, if set, observes every retired micro-op (tracing).
	OnRetire func(cycle uint64, u isa.Uop)
	// OnSquash, if set, observes every pipeline squash with the
	// redirect target (tracing).
	OnSquash func(cycle uint64, target uint64)

	cycle  uint64
	halted bool
	// retired counts retired macro-ops (fused pairs count as two).
	retired uint64
}

// New builds a backend for one hardware thread whose in-flight
// entries live in slots.
func New(cfg Config, slots *Ring, fe *frontend.FrontEnd, bp *bpu.BPU, hier *mem.Hierarchy, gmem Memory, ctr *perfctr.Counters) *Backend {
	return &Backend{cfg: cfg, slots: slots, fe: fe, bp: bp, hier: hier, gmem: gmem, ctr: ctr}
}

// at returns the slot of the entry with sequence number s.
func (b *Backend) at(s uint64) *entry { return &b.slots[s%ringSize] }

// Reset prepares the backend to run from a clean architectural state at
// entry. Register and memory contents persist (the attacks depend on
// persistent microarchitectural and memory state between runs).
func (b *Backend) Reset(pc uint64) {
	b.drain()
	b.halted = false
	b.fe.Redirect(pc)
}

// drain empties the ROB and forgets every in-flight producer.
func (b *Backend) drain() {
	b.head = b.tail
	b.regProd = [isa.NumRegs]*entry{}
	b.flagProd = nil
}

// Halted reports whether the thread has retired a HALT.
func (b *Backend) Halted() bool { return b.halted }

// Reg returns the architectural value of r.
func (b *Backend) Reg(r isa.Reg) int64 { return b.regs[r] }

// SetReg sets the architectural value of r.
func (b *Backend) SetReg(r isa.Reg, v int64) { b.regs[r] = v }

// Retired returns retired macro-op count.
func (b *Backend) Retired() uint64 { return b.retired }

// KernelMode reports the current privilege level.
func (b *Backend) KernelMode() bool { return b.kernelMode }

// State is the backend state that persists between runs: architectural
// registers and flags, privilege mode, the syscall return stack, the
// retired-macro-op count and the halted flag. In-flight ROB contents
// are deliberately absent — checkpoints are taken between runs, where
// Reset discards them anyway.
type State struct {
	Regs       [isa.NumRegs]int64
	Flags      isa.Flags
	KernelMode bool
	SysRet     []uint64
	Retired    uint64
	Halted     bool
}

// Save deep-copies the persistent backend state into s, reusing s's
// buffers.
func (b *Backend) Save(s *State) {
	s.Regs = b.regs
	s.Flags = b.flags
	s.KernelMode = b.kernelMode
	s.SysRet = append(s.SysRet[:0], b.sysRet...)
	s.Retired = b.retired
	s.Halted = b.halted
}

// Restore rehydrates the persistent backend state from s, draining any
// in-flight entries (exactly as Reset does) so the backend sits in the
// quiescent between-runs position.
func (b *Backend) Restore(s *State) {
	b.drain()
	b.regs = s.Regs
	b.flags = s.Flags
	b.kernelMode = s.KernelMode
	b.sysRet = append(b.sysRet[:0], s.SysRet...)
	b.retired = s.Retired
	b.halted = s.Halted
}

// Tick advances the backend one cycle: retire, execute, then dispatch
// (reverse pipeline order so a micro-op spends at least a cycle in each
// stage).
func (b *Backend) Tick(cycle uint64) {
	b.cycle = cycle
	if b.halted {
		return
	}
	b.retire()
	b.resolveBranches()
	b.execute()
	b.dispatch()
}

// SkipBound returns how many upcoming cycles of Tick (called with
// cycle+1, cycle+2, …) are provably no-ops, so the core can advance
// the clock over them in one step. ^uint64(0) means the backend is
// idle until the front end delivers; 0 means the next Tick may retire,
// resolve, complete, issue, or dispatch and must run for real.
//
// The proof obligation: inside the returned window no entry completes
// (the bound ends strictly before the earliest readyAt), so nothing
// retires, no branch resolves, no dependency becomes ready, fences
// stay standing, and stores stay undrained — every blocked micro-op
// stays blocked for exactly the window.
func (b *Backend) SkipBound(cycle uint64) uint64 {
	const unbounded = ^uint64(0)
	if b.halted {
		return unbounded
	}
	if b.head == b.tail {
		if b.fe.IDQLen() > 0 {
			return 0 // dispatch would rename into the empty ROB
		}
		return unbounded
	}
	if b.at(b.head).done {
		return 0 // retire (or branch resolution) acts on the head
	}
	if b.fe.IDQLen() > 0 && b.tail-b.head < ROBSize {
		return 0 // dispatch has both micro-ops and ROB room
	}
	bound := unbounded
	lf := b.lfenceBlock()
	fenced := false // a ready serializing micro-op blocks all younger issue
	for s := b.head; s < b.tail; s++ {
		e := b.at(s)
		if e.done {
			if e.uop.IsBranch() && !e.resolved {
				return 0 // resolveBranches acts
			}
			continue
		}
		if e.issued {
			if e.readyAt <= cycle+1 {
				return 0 // completes on the very next Tick
			}
			if w := e.readyAt - cycle - 1; w < bound {
				bound = w
			}
			continue
		}
		// Unissued. It is window-inert only if blocked by a condition
		// that can change solely through a completion or retirement —
		// both excluded inside the window.
		if fenced {
			continue
		}
		if s > lf {
			continue // behind an in-flight LFENCE
		}
		if !depReady(e.src1) || !depReady(e.src2) ||
			!depReady(e.flagSrc) || !depReady(e.chain) {
			continue // waiting on an in-flight producer
		}
		switch e.uop.Op {
		case isa.LFENCE, isa.SYSRET, isa.ITLBFLUSH:
			if s > b.head {
				// Serializing: waits to reach the ROB head, which takes a
				// retirement; execute's issue loop breaks here, so every
				// younger micro-op is blocked with it.
				fenced = true
				continue
			}
		}
		if isLoad(&e.uop) && b.olderStorePending(s) {
			continue // stores drain only at retire
		}
		return 0 // ready to issue next Tick
	}
	return bound
}

// lfenceBlock returns the sequence number of the oldest unretired
// LFENCE (micro-ops younger than it may not issue), or tail if none.
func (b *Backend) lfenceBlock() uint64 {
	for s := b.head; s < b.tail; s++ {
		if e := b.at(s); e.uop.Op == isa.LFENCE && !e.done {
			return s
		}
	}
	return b.tail
}

// dispatch renames micro-ops from the IDQ into the ROB.
func (b *Backend) dispatch() {
	n := min(DispatchWidth, ROBSize-int(b.tail-b.head))
	if n <= 0 {
		return
	}
	for range n {
		u := b.fe.Pop()
		if u == nil {
			return
		}
		e := b.at(b.tail)
		*e = entry{}
		e.uop = *u
		b.captureSources(e)
		if b.tail > b.head && e.uop.Index > 0 {
			if prev := b.at(b.tail - 1); prev.uop.MacroAddr == e.uop.MacroAddr {
				// Intra-macro-op chaining (e.g. RET's branch consumes
				// the popped return address).
				e.chain = prev
			}
		}
		b.tail++
		if r, ok := e.writesReg(); ok {
			b.regProd[r] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
}

// captureSources records e's dataflow dependencies, or captures the
// architectural values if no in-flight producer exists.
func (b *Backend) captureSources(e *entry) {
	u := &e.uop
	readReg := func(r isa.Reg) (*entry, int64) {
		if r == isa.NoReg {
			return nil, 0
		}
		if p := b.regProd[r]; p != nil {
			return p, 0
		}
		return nil, b.regs[r]
	}
	src2reg := u.Src
	if u.Fused {
		src2reg = u.FusedSrc
		if u.FusedHasImm {
			src2reg = isa.NoReg
		}
	} else if u.HasImm {
		src2reg = isa.NoReg
	}
	switch u.Op {
	case isa.MOVI, isa.JMP, isa.NOP, isa.LFENCE, isa.CPUID, isa.PAUSE,
		isa.RDTSC, isa.MSROMOP, isa.HALT, isa.SYSCALL, isa.SYSRET,
		isa.ITLBFLUSH:
		// No register sources.
	case isa.MOV:
		e.src1, e.v1 = readReg(u.Src)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		e.src1, e.v1 = readReg(u.Dst)
		e.src2, e.v2 = readReg(src2reg)
	case isa.CMP, isa.TEST:
		e.src1, e.v1 = readReg(u.Dst)
		e.src2, e.v2 = readReg(src2reg)
	case isa.JCC:
		if u.Fused {
			e.src1, e.v1 = readReg(u.Dst)
			e.src2, e.v2 = readReg(src2reg)
		} else if b.flagProd != nil {
			e.flagSrc = b.flagProd
		} else {
			e.inFlags = b.flags
		}
	case isa.JMPI:
		e.src1, e.v1 = readReg(u.Dst)
	case isa.CALLI:
		if u.Index == 0 {
			e.src1, e.v1 = readReg(isa.R15) // push uses the stack pointer
		} else {
			e.src1, e.v1 = readReg(u.Dst)
		}
	case isa.LOAD, isa.LOADB, isa.CLFLUSH:
		e.src1, e.v1 = readReg(u.Src)
	case isa.STORE, isa.STOREB:
		e.src1, e.v1 = readReg(u.Src) // base
		e.src2, e.v2 = readReg(u.Dst) // data
	case isa.CALL:
		if u.Index == 0 {
			e.src1, e.v1 = readReg(isa.R15)
		}
	case isa.RET:
		e.src1, e.v1 = readReg(isa.R15)
	}
}

func isLoad(u *isa.Uop) bool {
	switch u.Op {
	case isa.LOAD, isa.LOADB:
		return true
	case isa.RET:
		return u.Index == 0 // the return-address pop
	}
	return false
}

func isStore(u *isa.Uop) bool {
	switch u.Op {
	case isa.STORE, isa.STOREB:
		return true
	case isa.CALL, isa.CALLI:
		return u.Index == 0 // the return-address push
	}
	return false
}

// olderStorePending reports whether any ROB entry older than sequence
// number s is an unretired store.
func (b *Backend) olderStorePending(s uint64) bool {
	for o := b.head; o < s; o++ {
		if isStore(&b.at(o).uop) {
			return true
		}
	}
	return false
}

func depReady(d *entry) bool { return d == nil || d.done }

func depVal(d *entry, captured int64) int64 {
	if d != nil {
		return d.val
	}
	return captured
}

// execute issues ready micro-ops to execution and completes in-flight
// ones.
func (b *Backend) execute() {
	lf := b.lfenceBlock()
	ports := ExecPorts
issueLoop:
	for s := b.head; s < b.tail; s++ {
		e := b.at(s)
		if e.done {
			continue
		}
		if e.issued {
			if b.cycle >= e.readyAt {
				e.done = true
			}
			continue
		}
		if ports == 0 {
			break
		}
		if s > lf {
			// LFENCE: younger micro-ops are not dispatched to
			// execution until it completes. (They were still fetched
			// and decoded — the variant-2 channel.)
			break
		}
		if !depReady(e.src1) || !depReady(e.src2) ||
			!depReady(e.flagSrc) || !depReady(e.chain) {
			continue
		}
		switch e.uop.Op {
		case isa.LFENCE, isa.SYSRET, isa.ITLBFLUSH:
			// Serializing: execute only once all older micro-ops have
			// drained (SYSRET must observe the SYSCALL-pushed return
			// address, which lands at retirement).
			if s > b.head {
				break issueLoop
			}
		}
		if isLoad(&e.uop) && b.olderStorePending(s) {
			// Stores commit memory at retire; a younger load must wait
			// for older stores to drain (conservative memory ordering
			// in place of store-to-load forwarding).
			continue
		}
		ports--
		b.issue(e)
	}
}

// issue starts execution of e, computing its result and latency.
func (b *Backend) issue(e *entry) {
	e.issued = true
	u := &e.uop
	lat := uint64(1)
	v1 := depVal(e.src1, e.v1)
	v2 := depVal(e.src2, e.v2)

	switch u.Op {
	case isa.NOP, isa.LFENCE, isa.PAUSE, isa.MSROMOP, isa.HALT,
		isa.CPUID, isa.ITLBFLUSH:
		// No result. PAUSE has a longer occupancy.
		if u.Op == isa.PAUSE {
			lat = 10
		}
	case isa.MOVI:
		e.val = u.Imm
	case isa.MOV:
		e.val = v1
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		rhs := v2
		if u.HasImm {
			rhs = u.Imm
		}
		e.val, e.outFlags = aluOp(u.Op, v1, rhs)
		e.wrFlags = true
	case isa.CMP, isa.TEST:
		rhs := v2
		if u.HasImm {
			rhs = u.Imm
		}
		op := isa.SUB
		if u.Op == isa.TEST {
			op = isa.AND
		}
		_, e.outFlags = aluOp(op, v1, rhs)
		e.wrFlags = true
	case isa.JMP:
		e.taken = true
		e.target = uint64(u.Imm)
	case isa.JCC:
		fl := e.inFlags
		if u.Fused {
			rhs := v2
			if u.FusedHasImm {
				rhs = u.FusedImm
			}
			op := isa.SUB
			if u.FusedOp == isa.TEST {
				op = isa.AND
			}
			_, fl = aluOp(op, v1, rhs)
			e.outFlags = fl
			e.wrFlags = true
		} else if e.flagSrc != nil {
			fl = e.flagSrc.outFlags
		}
		e.taken = u.Cond.Eval(fl)
		e.target = uint64(u.Imm)
	case isa.JMPI:
		e.taken = true
		e.target = uint64(v1)
	case isa.LOAD, isa.LOADB:
		e.memAddr = uint64(v1 + u.Imm)
		e.memSize = 8
		if u.Op == isa.LOADB {
			e.memSize = 1
		}
		if b.cfg.InvisibleSpeculation {
			// Invisible speculation: probe the latency without filling
			// any cache level; the visible fill happens at retirement.
			lat = uint64(b.hier.PeekDataLatency(e.memAddr))
		} else {
			lat = uint64(b.hier.AccessData(e.memAddr))
		}
		e.val = b.gmem.Read(e.memAddr, e.memSize)
	case isa.STORE, isa.STOREB:
		e.memAddr = uint64(v1 + u.Imm)
		e.memSize = 8
		if u.Op == isa.STOREB {
			e.memSize = 1
		}
		e.val = v2
		lat = 1 // the write itself lands at retire
	case isa.CLFLUSH:
		e.memAddr = uint64(v1 + u.Imm)
	case isa.RDTSC:
		if u.Index == 0 {
			e.val = int64(b.cycle)
		}
	case isa.CALL, isa.CALLI:
		if u.Index == 0 {
			e.val = v1 - 8 // new stack pointer
			e.memAddr = uint64(v1 - 8)
			e.memSize = 8
		} else {
			e.taken = true
			if u.Op == isa.CALL {
				e.target = uint64(u.Imm)
			} else {
				e.target = uint64(v1)
			}
		}
	case isa.RET:
		if u.Index == 0 {
			// Pop: load the return address into the chain temp.
			e.memAddr = uint64(v1)
			e.memSize = 8
			lat = uint64(b.hier.AccessData(e.memAddr))
			e.val = b.gmem.Read(e.memAddr, 8)
		} else {
			// Branch to the popped address; bump the stack pointer.
			e.taken = true
			e.target = uint64(depVal(e.chain, 0))
			e.val = v1 + 8
		}
	case isa.SYSCALL:
		if u.Index == u.Count-1 {
			e.taken = true
			e.target = isa.KernelEntry
		}
	case isa.SYSRET:
		e.taken = true
		if n := len(b.sysRet); n > 0 {
			e.target = b.sysRet[n-1]
		}
	}
	e.readyAt = b.cycle + lat
	if lat == 0 {
		e.done = true
	}
}

// aluOp computes v = a op b and the resulting flags.
func aluOp(op isa.Op, a, bv int64) (int64, isa.Flags) {
	var v int64
	var f isa.Flags
	switch op {
	case isa.ADD:
		v = a + bv
	case isa.SUB:
		v = a - bv
		f.Carry = uint64(a) < uint64(bv)
	case isa.AND:
		v = a & bv
	case isa.OR:
		v = a | bv
	case isa.XOR:
		v = a ^ bv
	case isa.SHL:
		v = a << (uint64(bv) & 63)
	case isa.SHR:
		v = int64(uint64(a) >> (uint64(bv) & 63))
	}
	f.Zero = v == 0
	f.Sign = v < 0
	return v, f
}

// resolveBranches checks completed branch micro-ops oldest-first and
// squashes on the first misprediction found.
func (b *Backend) resolveBranches() {
	for s := b.head; s < b.tail; s++ {
		e := b.at(s)
		if !e.done || e.resolved || !e.uop.IsBranch() {
			continue
		}
		e.resolved = true
		u := &e.uop
		actualNext := u.FallThrough()
		if e.taken {
			actualNext = e.target
		}
		predNext := u.FallThrough()
		if u.PredTaken {
			predNext = u.PredTarget
		}
		// Train predictors with the resolved outcome.
		misp := actualNext != predNext
		switch u.Op {
		case isa.JCC:
			b.bp.UpdateDirection(u.BranchPC, e.taken)
		case isa.JMPI, isa.CALLI:
			b.bp.UpdateIndirect(u.BranchPC, e.target)
		}
		if misp {
			b.squashAfter(s)
			b.ctr.Inc(perfctr.BranchMispredicts)
			b.ctr.Inc(perfctr.Squashes)
			if b.OnSquash != nil {
				b.OnSquash(b.cycle, actualNext)
			}
			b.fe.Redirect(actualNext)
			b.fe.AddStall(MispredictPenalty)
			return
		}
	}
}

// squashAfter drops every ROB entry younger than sequence number s and
// rebuilds the rename state from the survivors. Squashed slots are
// reused at once: only younger entries, squashed with them, referenced
// them. Cache and micro-op cache side effects of squashed micro-ops
// are — deliberately — not undone.
func (b *Backend) squashAfter(s uint64) {
	b.tail = s + 1
	b.regProd = [isa.NumRegs]*entry{}
	b.flagProd = nil
	for o := b.head; o < b.tail; o++ {
		e := b.at(o)
		if r, ok := e.writesReg(); ok {
			b.regProd[r] = e
		}
		if e.writesFlags() {
			b.flagProd = e
		}
	}
}

// retire commits completed micro-ops in order.
func (b *Backend) retire() {
	for n := 0; n < RetireWidth && b.head < b.tail; n++ {
		e := b.at(b.head)
		if !e.done {
			break
		}
		if e.uop.IsBranch() && !e.resolved {
			break
		}
		b.commit(e)
		b.clearProducer(e)
		b.head++
		if b.OnRetire != nil {
			b.OnRetire(b.cycle, e.uop)
		}
		b.ctr.Inc(perfctr.UopsRetired)
		if e.uop.Index == e.uop.Count-1 {
			b.ctr.Inc(perfctr.Instructions)
			if e.uop.Fused {
				b.ctr.Inc(perfctr.Instructions)
			}
			b.retired++
			if e.uop.Fused {
				b.retired++
			}
		}
		if b.halted {
			break
		}
	}
}

// clearProducer removes rename-table references to a retired entry.
// Only e's own destination can name it: dispatch and squashAfter
// record an entry only under the register it writes.
func (b *Backend) clearProducer(e *entry) {
	if r, ok := e.writesReg(); ok && b.regProd[r] == e {
		b.regProd[r] = nil
	}
	if b.flagProd == e {
		b.flagProd = nil
	}
}

// commit applies e's architectural effects.
func (b *Backend) commit(e *entry) {
	u := &e.uop
	if r, ok := e.writesReg(); ok {
		b.regs[r] = e.val
	}
	if e.wrFlags {
		b.flags = e.outFlags
	}
	switch u.Op {
	case isa.LOAD, isa.LOADB:
		if b.cfg.InvisibleSpeculation {
			// The load is no longer speculative: make its fill visible.
			b.hier.AccessData(e.memAddr)
		}
	case isa.STORE, isa.STOREB:
		b.hier.AccessData(e.memAddr)
		b.gmem.Write(e.memAddr, e.memSize, e.val)
	case isa.CALL, isa.CALLI:
		if u.Index == 0 {
			b.gmem.Write(e.memAddr, 8, int64(u.FallThrough()))
		}
	case isa.CLFLUSH:
		b.hier.Flush(e.memAddr)
	case isa.CPUID:
		if u.Index == u.Count-1 {
			b.fe.SerializeDone(u.FallThrough())
		}
	case isa.SYSCALL:
		if u.Index == u.Count-1 {
			b.kernelMode = true
			b.sysRet = append(b.sysRet, u.FallThrough())
			if b.OnPrivilegeSwitch != nil {
				b.OnPrivilegeSwitch(true)
			}
		}
	case isa.SYSRET:
		b.kernelMode = false
		if n := len(b.sysRet); n > 0 {
			b.sysRet = b.sysRet[:n-1]
		}
		if b.OnPrivilegeSwitch != nil {
			b.OnPrivilegeSwitch(false)
		}
	case isa.ITLBFLUSH:
		if u.Index == u.Count-1 {
			b.hier.FlushITLB()
		}
	case isa.HALT:
		b.halted = true
		b.fe.Stop()
	}
}
