// Package uopcache models the micro-op cache (Intel's DSB, AMD's op
// cache) characterized in §II-III of the paper: a streaming,
// set-associative cache of decoded micro-ops indexed from bit 5 of the
// macro-op virtual address, governed by the placement rules the paper
// documents and the hotness-based replacement and SMT
// partitioning/sharing policies it reverse-engineers. The placement
// rules are package constants, shared by every modelled part; Config
// holds only what the parts (internal/profile) or the ablations vary.
package uopcache

import (
	"fmt"

	"deaduops/internal/isa"
	"deaduops/internal/rows"
)

// SMTPolicy selects how two hardware threads share the structure.
type SMTPolicy int

const (
	// PartitionStatic is the Intel policy: in SMT mode each thread sees
	// a statically assigned half of the cache, organized as Sets/2
	// fully associative-width sets (Fig 7: 16 sets of 8 ways each).
	PartitionStatic SMTPolicy = iota
	// ShareCompetitive is the AMD Zen policy: both threads compete for
	// all lines; one thread's fills evict the other's lines (§V-B).
	ShareCompetitive
)

// String implements fmt.Stringer.
func (p SMTPolicy) String() string {
	switch p {
	case PartitionStatic:
		return "static-partition"
	case ShareCompetitive:
		return "competitive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// The placement rules every modelled part shares (§II-B, §III): the
// geometry the paper's attacks stand on, not settings.
const (
	// IndexLoBit is the lowest address bit of the set index: regions
	// are 1<<IndexLoBit = 32 bytes.
	IndexLoBit = 5
	// MaxLinesPerRegion caps how many ways one 32-byte code region may
	// occupy (3 lines, 18 µops on Skylake: the largest cacheable
	// region).
	MaxLinesPerRegion = 3
	// MaxBranchesPerLine caps branch micro-ops per line.
	MaxBranchesPerLine = 2
)

// Config sizes and parameterizes the micro-op cache. A hit streams one
// line, SlotsPerLine micro-ops, per cycle.
type Config struct {
	Sets         int // number of sets (power of two)
	Ways         int // lines per set
	SlotsPerLine int // micro-op slots per line (6 on Skylake)
	// HotnessMax saturates the per-line hotness counter. A small cap
	// (a few bits, as a real implementation would afford) bounds how
	// long a once-hot line can resist eviction pressure.
	HotnessMax int
	// SMT selects the sharing policy when two threads are active.
	SMT SMTPolicy
	// SwitchPenalty is the DSB→MITE switch cost in cycles (1 on
	// Skylake).
	SwitchPenalty int
	// Disabled turns the structure into a pure MITE-only control: every
	// lookup misses, every fill is rejected as uncacheable, and traces
	// built against this configuration report dsb-disabled. Geometry
	// fields are kept so set/region arithmetic (receiver layout, probe
	// chains) still works; only the caching behaviour is removed.
	Disabled bool
}

// Skylake returns the Intel Skylake/Coffee Lake configuration the paper
// characterizes: 32 sets × 8 ways × 6 µops = 1536 µops, statically
// partitioned under SMT — the default machine. The other parts are
// defined in internal/profile.
func Skylake() Config {
	return Config{
		Sets: 32, Ways: 8, SlotsPerLine: 6, HotnessMax: 8,
		SMT: PartitionStatic, SwitchPenalty: 1,
	}
}

// RegionSize returns the code-region granularity in bytes.
func (c Config) RegionSize() uint64 { return 1 << IndexLoBit }

// Capacity returns the total micro-op slot capacity.
func (c Config) Capacity() int { return c.Sets * c.Ways * c.SlotsPerLine }

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("uopcache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 || c.SlotsPerLine <= 0 {
		return fmt.Errorf("uopcache: non-positive geometry %+v", c)
	}
	return nil
}

// Stats counts micro-op cache events; the characterization experiments
// read these as their performance-counter analogues.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	StreamedUops  uint64 // µops delivered from the cache (IDQ.DSB_UOPS)
	Fills         uint64 // lines installed
	FillFailures  uint64 // fill attempts rejected by hotness protection
	Evictions     uint64
	Uncacheable   uint64 // regions rejected by placement rules
	FlushAll      uint64
	Invalidations uint64 // lines dropped by L1I/iTLB inclusion
}

// line is one cached way: the seq-th line of the trace it points at.
type line struct {
	valid   bool
	thread  int
	region  uint64 // region base address
	entry   uint8  // entry offset within the region
	seq     uint8  // line index within the trace
	trace   *Trace
	hotness int
}

// Cache is the micro-op cache.
type Cache struct {
	cfg Config
	// sets holds one row of Ways lines per set. Fill marks its set, so
	// Save, Restore and flushes walk only the sets ever filled.
	sets rows.Table[line]
	// byDomain statically partitions the sets between the user and
	// kernel domains (PartitionByDomain); domain is each hardware
	// thread's current privilege domain (0 = user, 1 = kernel).
	byDomain bool
	domain   [2]int
	// victimPtr is each set's round-robin replacement pointer: fill
	// pressure rotates across ways, wearing every resident down
	// uniformly, so a loop that out-accesses a resident loop displaces
	// it — and one that doesn't, doesn't (Fig 5).
	victimPtr []int
	smtMode   bool
	stats     Stats
	setShift  uint
	// regionMask clears an address's in-region offset bits; it keeps
	// the per-fetch RegionOf from copying the whole Config.
	regionMask uint64
}

// New builds a micro-op cache. It panics on an invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:        cfg,
		sets:       rows.New[line](cfg.Sets, cfg.Ways),
		victimPtr:  make([]int, cfg.Sets),
		regionMask: ^(cfg.RegionSize() - 1),
	}
	for v := cfg.Sets; v > 1; v >>= 1 {
		c.setShift++
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetSMTMode switches between single-thread and SMT operation. Under
// Intel's static partitioning this changes the visible geometry; the
// cache is flushed on a mode change, as the physical set mapping moves.
func (c *Cache) SetSMTMode(on bool) {
	if c.smtMode == on {
		return
	}
	c.smtMode = on
	c.sets.Reset()
}

// RegionOf returns the region base address containing addr.
func (c *Cache) RegionOf(addr uint64) uint64 {
	return addr & c.regionMask
}

// setIndex maps (thread, region) to a physical set. In Intel SMT mode
// each thread owns a bank of Sets/2 sets indexed by one fewer address
// bit — the "16 8-way sets per thread" organization of Fig 7. With the
// privilege-partition mitigation enabled, the current privilege domain
// selects the bank instead.
func (c *Cache) setIndex(thread int, region uint64) int {
	idx := int(region>>IndexLoBit) & (c.cfg.Sets - 1)
	half := c.cfg.Sets / 2
	if c.byDomain {
		return (c.domain[thread&1]&1)*half + idx%half
	}
	if c.smtMode && c.cfg.SMT == PartitionStatic {
		return (thread&1)*half + idx%half
	}
	return idx
}

// PartitionByDomain statically partitions the cache between the user
// and kernel privilege domains (the §VIII privilege-partition
// mitigation): from now on each domain sees half the sets, selected by
// the thread's SetDomain, so kernel execution cannot evict user lines.
func (c *Cache) PartitionByDomain() { c.byDomain = true }

// SetDomain records thread's current privilege domain (0 = user,
// 1 = kernel) for the privilege-partition mitigation.
func (c *Cache) SetDomain(thread, domain int) {
	c.domain[thread&1] = domain
}

// VisibleSets returns how many sets one thread can reach right now.
func (c *Cache) VisibleSets(thread int) int {
	if c.byDomain || (c.smtMode && c.cfg.SMT == PartitionStatic) {
		return c.cfg.Sets / 2
	}
	return c.cfg.Sets
}

// matches reports whether l is the seq-th line of the trace (thread,
// region, entry). Under competitive sharing lines are thread-tagged, so
// a lookup only hits its own thread's lines, but capacity is shared.
func (c *Cache) matches(l *line, thread int, region uint64, entry uint8) bool {
	return l.valid && l.region == region && l.entry == entry && l.thread == thread
}

// Lookup streams the trace for the code at addr for the given hardware
// thread. On a hit it bumps line hotness and returns the trace's µops,
// which the caller must not modify.
func (c *Cache) Lookup(thread int, addr uint64) ([]isa.Uop, bool) {
	c.stats.Lookups++
	if c.cfg.Disabled {
		c.stats.Misses++
		return nil, false
	}
	var found [MaxLinesPerRegion]*line
	n := c.resident(thread, addr, &found)
	if n == 0 {
		c.stats.Misses++
		return nil, false
	}
	for _, l := range found[:n] {
		if l.hotness < c.cfg.HotnessMax {
			l.hotness++
		}
	}
	uops := found[0].trace.Uops
	c.stats.Hits++
	c.stats.StreamedUops += uint64(len(uops))
	return uops, true
}

// Present reports whether the trace for addr is fully cached, without
// perturbing hotness or statistics.
func (c *Cache) Present(thread int, addr uint64) bool {
	var found [MaxLinesPerRegion]*line
	return c.resident(thread, addr, &found) > 0
}

// resident gathers the lines of the trace cached for the code at addr
// into found and returns their count, or 0 unless every line of the
// trace is present. All lines matching (thread, region, entry) in a
// set come from one trace, because Fill drops every one of them before
// it installs a new trace; so the trace is resident exactly when the
// matching lines number as many as its lines.
func (c *Cache) resident(thread int, addr uint64, found *[MaxLinesPerRegion]*line) int {
	region := c.RegionOf(addr)
	entry := uint8(addr - region)
	set := c.sets.Row(c.setIndex(thread, region))
	n := 0
	for i := range set {
		if l := &set[i]; c.matches(l, thread, region, entry) && n < len(found) {
			found[n] = l
			n++
		}
	}
	if n == 0 || n != len(found[0].trace.Lines) {
		return 0
	}
	return n
}

// Fill attempts to install a built trace. The hotness replacement
// policy may refuse: a fill that would displace a line whose hotness
// has not been worn to zero instead decrements the victim and fails,
// so a cold evictor must out-access a hot resident before displacing
// it — the Fig 5 behaviour.
func (c *Cache) Fill(thread int, t *Trace) {
	if t == nil || !t.Cacheable || c.cfg.Disabled {
		c.stats.Uncacheable++
		return
	}
	setIdx := c.setIndex(thread, t.Region)
	set := c.sets.Row(setIdx)

	// Drop any stale partial trace for this (thread, region, entry).
	for i := range set {
		l := &set[i]
		if c.matches(l, thread, t.Region, t.Entry) {
			l.valid = false
			c.stats.Invalidations++
		}
	}

	for seq := range t.Lines {
		victim := -1
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
		}
		if victim < 0 {
			// All ways valid: attack the way under the rotating
			// pointer. A hot resident absorbs the attempt (hotness
			// decremented) and the fill fails; a worn-out resident is
			// displaced.
			p := c.victimPtr[setIdx]
			c.victimPtr[setIdx] = (p + 1) % c.cfg.Ways
			v := &set[p]
			if v.hotness > 0 {
				v.hotness--
				c.stats.FillFailures++
				return
			}
			v.valid = false
			c.stats.Evictions++
			victim = p
		}
		// Fills are the only way a line becomes valid, so marking here
		// marks every set holding state.
		c.sets.Mark(setIdx)
		v := &set[victim]
		*v = line{
			valid:   true,
			thread:  thread,
			region:  t.Region,
			entry:   t.Entry,
			seq:     uint8(seq),
			trace:   t,
			hotness: 1,
		}
		c.stats.Fills++
	}
}

// State is a snapshot of the cache's dynamic contents: every filled
// set's ways (validity, tags, hotness), the round-robin victim
// pointers, the privilege domains, the SMT mode, and the counters.
// Its cost scales with the sets a workload filled, not the cache's
// size. Lines point at their traces, which are read-only once built,
// so a snapshot shares them safely across any number of restores. Backing arrays are recycled across
// Save calls; a snapshot only restores into a cache built from the
// same geometry.
type State struct {
	sets      rows.State[line]
	victimPtr []int
	domain    [2]int
	smtMode   bool
	stats     Stats
}

// Save copies the cache contents into s, reusing s's buffers.
func (c *Cache) Save(s *State) {
	c.sets.Save(&s.sets)
	s.victimPtr = append(s.victimPtr[:0], c.victimPtr...)
	s.domain = c.domain
	s.smtMode = c.smtMode
	s.stats = c.stats
}

// Restore overwrites the cache contents from s in O(sets filled here
// or in s). It panics if s was saved from a cache with different
// geometry.
func (c *Cache) Restore(s *State) {
	c.sets.Restore(&s.sets)
	copy(c.victimPtr, s.victimPtr)
	c.domain = s.domain
	c.smtMode = s.smtMode
	c.stats = s.stats
}

// InvalidateCodeLine drops every trace whose region falls inside the
// 64-byte instruction-cache line at lineAddr — the inclusion property:
// an L1I eviction forces the corresponding micro-op cache lines out.
func (c *Cache) InvalidateCodeLine(lineAddr uint64, lineSize uint64) {
	start := lineAddr &^ (lineSize - 1)
	end := start + lineSize
	lines := c.sets.All()
	for i := range lines {
		l := &lines[i]
		if l.valid && l.region >= start && l.region < end {
			l.valid = false
			c.stats.Invalidations++
		}
	}
}

// FlushAll empties the cache (iTLB-flush inclusion, SGX enclave
// entry/exit, privilege-partitioning mitigations).
func (c *Cache) FlushAll() {
	c.stats.FlushAll++
	c.sets.Reset()
}

// LineInfo describes one valid line for occupancy inspection (Fig 8 and
// the structural tests).
type LineInfo struct {
	Set     int
	Way     int
	Thread  int
	Region  uint64
	Entry   uint8
	Seq     uint8
	Slots   int
	Uops    int
	Hotness int
}

// Snapshot returns all valid lines.
func (c *Cache) Snapshot() []LineInfo {
	var out []LineInfo
	for s := 0; s < c.cfg.Sets; s++ {
		ways := c.sets.Row(s)
		for w := range ways {
			l := &ways[w]
			if !l.valid {
				continue
			}
			lu := &l.trace.Lines[l.seq]
			out = append(out, LineInfo{
				Set: s, Way: w, Thread: l.thread,
				Region: l.region, Entry: l.entry, Seq: l.seq,
				Slots: lu.Slots, Uops: len(lu.Uops), Hotness: l.hotness,
			})
		}
	}
	return out
}

// OccupiedWays returns how many ways of physical set s are valid.
func (c *Cache) OccupiedWays(s int) int {
	n := 0
	for _, l := range c.sets.Row(s) {
		if l.valid {
			n++
		}
	}
	return n
}
