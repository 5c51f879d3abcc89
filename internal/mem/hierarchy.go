package mem

// The hierarchy's geometry and latencies mirror the paper's Coffee
// Lake testbed (i7-8700T): 32 KiB 8-way L1I and L1D, 256 KiB 4-way
// L2, and a 16-way shared LLC (8 MiB here: the model needs a
// power-of-two set count, where the i7-8700T has 12 MiB). Latencies
// are in cycles.
const (
	// LineSize is every level's line size in bytes.
	LineSize = 64
	// L1Sets, L1Ways and L1Latency size the L1I and the L1D alike.
	L1Sets, L1Ways, L1Latency    = 64, 8, 4
	L2Sets, L2Ways, L2Latency    = 1024, 4, 14
	LLCSets, LLCWays, LLCLatency = 8192, 16, 44
	// MemLatency is the DRAM access latency.
	MemLatency = 200
	// ITLBEntries, ITLBWays and PageSize size the iTLB.
	ITLBEntries, ITLBWays, PageSize = 128, 8, 4096
	// pageWalkLatency is what an iTLB miss adds to a fetch.
	pageWalkLatency = 20
)

// HierarchyStats aggregates the counters Table II reads.
type HierarchyStats struct {
	L1I, L1D, L2, LLC CacheStats
	// LLCRefs/LLCMisses mirror the LONGEST_LAT_CACHE.REFERENCE/MISS
	// events: LLC lookups and fills from DRAM.
	LLCRefs   uint64
	LLCMisses uint64
	ITLB      CacheStats
}

// Hierarchy is the three-level cache model plus iTLB.
type Hierarchy struct {
	l1i *Cache
	l1d *Cache
	l2  *Cache
	llc *Cache
	tlb *Cache

	// onITLBFlush fires when the iTLB is flushed; the micro-op cache
	// registers a full flush here (SGX-style behaviour from §II-B).
	onITLBFlush func()
}

// NewHierarchy builds the hierarchy.
func NewHierarchy() *Hierarchy {
	l1 := CacheConfig{Sets: L1Sets, Ways: L1Ways, LineSize: LineSize}
	return &Hierarchy{
		l1i: NewCache("L1I", l1),
		l1d: NewCache("L1D", l1),
		l2:  NewCache("L2", CacheConfig{Sets: L2Sets, Ways: L2Ways, LineSize: LineSize}),
		llc: NewCache("LLC", CacheConfig{Sets: LLCSets, Ways: LLCWays, LineSize: LineSize}),
		tlb: NewCache("iTLB", CacheConfig{Sets: ITLBEntries / ITLBWays, Ways: ITLBWays, LineSize: PageSize}),
	}
}

// L1I returns the instruction cache (for hooking inclusion).
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// SetITLBFlushHook installs fn to run on every full iTLB flush.
func (h *Hierarchy) SetITLBFlushHook(fn func()) { h.onITLBFlush = fn }

// Stats returns all counters.
func (h *Hierarchy) Stats() HierarchyStats {
	return HierarchyStats{
		L1I:       h.l1i.Stats(),
		L1D:       h.l1d.Stats(),
		L2:        h.l2.Stats(),
		LLC:       h.llc.Stats(),
		LLCRefs:   h.llc.Stats().Accesses,
		LLCMisses: h.llc.Stats().Misses,
		ITLB:      h.tlb.Stats(),
	}
}

// HierarchyState is a deep snapshot of every level's dynamic contents
// (L1I, L1D, L2, LLC, iTLB), reusable across Save calls. Eviction and
// iTLB-flush hooks stay with the live hierarchy.
type HierarchyState struct {
	l1i, l1d, l2, llc, tlb CacheState
}

// Save deep-copies all five levels into s, reusing s's buffers.
func (h *Hierarchy) Save(s *HierarchyState) {
	h.l1i.Save(&s.l1i)
	h.l1d.Save(&s.l1d)
	h.l2.Save(&s.l2)
	h.llc.Save(&s.llc)
	h.tlb.Save(&s.tlb)
}

// Restore overwrites all five levels from s. No hooks fire.
func (h *Hierarchy) Restore(s *HierarchyState) {
	h.l1i.Restore(&s.l1i)
	h.l1d.Restore(&s.l1d)
	h.l2.Restore(&s.l2)
	h.llc.Restore(&s.llc)
	h.tlb.Restore(&s.tlb)
}

// Reset empties all five levels in O(touched sets) and drops the
// eviction and iTLB-flush hooks, leaving the hierarchy equal to a new
// one.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	h.llc.Reset()
	h.tlb.Reset()
	h.onITLBFlush = nil
}

// AccessData performs a data access at addr and returns its latency in
// cycles, filling every missing level on the way.
func (h *Hierarchy) AccessData(addr uint64) int {
	if h.l1d.Access(addr) {
		return L1Latency
	}
	if h.l2.Access(addr) {
		return L2Latency
	}
	if h.llc.Access(addr) {
		return LLCLatency
	}
	return MemLatency
}

// AccessInst performs an instruction-fetch access at addr (iTLB + L1I +
// lower levels) and returns its latency in cycles.
func (h *Hierarchy) AccessInst(addr uint64) int {
	lat := 0
	if !h.tlb.Access(addr) {
		lat += pageWalkLatency
	}
	if h.l1i.Access(addr) {
		return lat + L1Latency
	}
	if h.l2.Access(addr) {
		return lat + L2Latency
	}
	if h.llc.Access(addr) {
		return lat + LLCLatency
	}
	return lat + MemLatency
}

// PeekDataLatency returns the latency a data access at addr would see
// right now, without filling or touching recency at any level — the
// invisible-speculation read path.
func (h *Hierarchy) PeekDataLatency(addr uint64) int {
	switch {
	case h.l1d.Contains(addr):
		return L1Latency
	case h.l2.Contains(addr):
		return L2Latency
	case h.llc.Contains(addr):
		return LLCLatency
	default:
		return MemLatency
	}
}

// InstCached reports whether the instruction line holding addr is in
// the L1I, without perturbing state.
func (h *Hierarchy) InstCached(addr uint64) bool { return h.l1i.Contains(addr) }

// DataCached reports the lowest level holding addr: 1, 2, 3, or 0 when
// only DRAM has it. It does not perturb state.
func (h *Hierarchy) DataCached(addr uint64) int {
	switch {
	case h.l1d.Contains(addr):
		return 1
	case h.l2.Contains(addr):
		return 2
	case h.llc.Contains(addr):
		return 3
	default:
		return 0
	}
}

// Flush evicts the data line containing addr from every level
// (clflush). Instruction-side lines are untouched, as on real hardware
// where clflush works on the unified levels; the L1I copy is
// invalidated through LLC inclusion.
func (h *Hierarchy) Flush(addr uint64) {
	h.l1d.Invalidate(addr)
	h.l1i.Invalidate(addr)
	h.l2.Invalidate(addr)
	h.llc.Invalidate(addr)
}

// FlushITLB empties the iTLB and fires the inclusion hook (full
// micro-op cache flush).
func (h *Hierarchy) FlushITLB() {
	h.tlb.InvalidateAll()
	if h.onITLBFlush != nil {
		h.onITLBFlush()
	}
}
