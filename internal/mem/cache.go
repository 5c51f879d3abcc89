// Package mem models the data/instruction cache hierarchy, the
// instruction TLB, and backing memory latencies. The hierarchy exists
// for two reasons: the classic Spectre-v1 baseline in Table II transmits
// over the LLC with flush+reload, and the micro-op cache is inclusive
// with respect to the L1I and the iTLB, so evictions and flushes there
// must propagate into the micro-op cache via hooks.
package mem

import (
	"fmt"

	"deaduops/internal/rows"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Sets     int // number of sets (power of two)
	Ways     int // associativity
	LineSize int // bytes per line (power of two)
}

// Lines returns the total line capacity.
func (c CacheConfig) Lines() int { return c.Sets * c.Ways }

// Bytes returns the total data capacity in bytes.
func (c CacheConfig) Bytes() int { return c.Lines() * c.LineSize }

func (c CacheConfig) validate(name string) error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: %s sets %d not a positive power of two", name, c.Sets)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: %s line size %d not a positive power of two", name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s ways %d not positive", name, c.Ways)
	}
	return nil
}

// CacheStats counts accesses to one cache level.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
}

// line is one cache line's metadata. The model tracks presence and
// recency only; data contents live in the CPU's flat memory image.
type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is one set-associative, true-LRU cache level.
type Cache struct {
	cfg CacheConfig
	// sets holds one row of Ways lines per set. Fills mark their set,
	// so Save, Restore and Reset walk only the sets a workload reached:
	// snapshotting an 8192-set LLC whose workload lives in a dozen sets
	// copies a dozen rows.
	sets  rows.Table[line]
	clock uint64
	stats CacheStats

	lineShift uint
	setMask   uint64
	tagShift  uint // log2(Sets): the tag is the line address above the set index

	// onEvict, if set, is called with the line-aligned address of every
	// line leaving this level (capacity eviction, back-invalidation, or
	// flush). The micro-op cache's L1I-inclusion hook hangs here.
	onEvict func(lineAddr uint64)
}

// NewCache builds a cache level. It panics on an invalid configuration;
// configurations are static in this codebase.
func NewCache(name string, cfg CacheConfig) *Cache {
	if err := cfg.validate(name); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:       cfg,
		sets:      rows.New[line](cfg.Sets, cfg.Ways),
		lineShift: log2(uint64(cfg.LineSize)),
		setMask:   uint64(cfg.Sets - 1),
		tagShift:  log2(uint64(cfg.Sets)),
	}
	return c
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the level's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// SetEvictHook installs fn to observe every line leaving the cache.
func (c *Cache) SetEvictHook(fn func(lineAddr uint64)) { c.onEvict = fn }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.tagShift
}

// Lookup probes without filling. It reports a hit and updates recency.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	ways := c.sets.Row(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			return true
		}
	}
	return false
}

// Access probes and fills on miss, evicting LRU. It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	set, tag := c.index(addr)
	c.clock++
	ways := c.sets.Row(set)
	victim := 0
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			c.stats.Hits++
			return true
		}
		if !ways[victim].valid {
			continue
		}
		if !l.valid || l.used < ways[victim].used {
			victim = i
		}
	}
	c.stats.Misses++
	v := &ways[victim]
	if v.valid {
		c.stats.Evicts++
		c.notifyEvict(set, v.tag)
	}
	// Fills are the only way a line becomes valid, so marking here
	// marks every set holding state.
	c.sets.Mark(set)
	*v = line{tag: tag, valid: true, used: c.clock}
	return false
}

func (c *Cache) notifyEvict(set int, tag uint64) {
	if c.onEvict == nil {
		return
	}
	lineAddr := (tag<<c.tagShift | uint64(set)) << c.lineShift
	c.onEvict(lineAddr)
}

// Invalidate removes the line containing addr, if present, reporting
// whether a line was removed. The eviction hook fires.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.sets.Row(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.valid = false
			c.notifyEvict(set, tag)
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache. Eviction hooks fire for every line.
func (c *Cache) InvalidateAll() {
	for set := 0; set < c.cfg.Sets; set++ {
		ways := c.sets.Row(set)
		for i := range ways {
			l := &ways[i]
			if l.valid {
				l.valid = false
				c.notifyEvict(set, l.tag)
			}
		}
	}
}

// CacheState is a sparse snapshot of one level's dynamic contents:
// only sets a fill has reached are stored, so snapshot cost scales
// with the workload's footprint, not the level's capacity. Backing
// arrays are recycled across Save calls, and a snapshot only restores
// into a cache built from the same geometry. Eviction hooks belong to
// the live cache and are untouched by Save/Restore.
type CacheState struct {
	sets  rows.State[line]
	clock uint64
	stats CacheStats
}

// Save deep-copies every reached set's rows into s, reusing s's
// buffers.
func (c *Cache) Save(s *CacheState) {
	c.sets.Save(&s.sets)
	s.clock = c.clock
	s.stats = c.stats
}

// Restore overwrites the level's contents from s in O(sets reached
// here or in s). It panics if s was saved from a level with different
// geometry. No eviction hooks fire: a restore is state substitution,
// not cache traffic.
func (c *Cache) Restore(s *CacheState) {
	c.sets.Restore(&s.sets)
	c.clock = s.clock
	c.stats = s.stats
}

// Reset empties the level in O(sets reached), leaving it equal to a
// new one, and drops the eviction hook.
func (c *Cache) Reset() {
	c.sets.Reset()
	c.clock = 0
	c.stats = CacheStats{}
	c.onEvict = nil
}

// Contains probes without touching recency or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.sets.Row(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
