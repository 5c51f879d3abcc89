package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache("t", CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("warm access missed")
	}
	if !c.Access(0x13F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x140) {
		t.Error("next line hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to set 0 in a 2-way set: 4 sets × 64B lines →
	// stride 256.
	c.Access(0x0000)
	c.Access(0x0100)
	c.Access(0x0000) // refresh line 0
	c.Access(0x0200) // evicts 0x0100 (LRU)
	if !c.Contains(0x0000) {
		t.Error("recently used line evicted")
	}
	if c.Contains(0x0100) {
		t.Error("LRU line survived")
	}
	if !c.Contains(0x0200) {
		t.Error("new line absent")
	}
}

func TestCacheEvictHook(t *testing.T) {
	c := smallCache()
	var evicted []uint64
	c.SetEvictHook(func(a uint64) { evicted = append(evicted, a) })
	c.Access(0x0000)
	c.Access(0x0100)
	c.Access(0x0200)
	if len(evicted) != 1 || evicted[0] != 0x0000 {
		t.Errorf("evictions %v, want [0x0]", evicted)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := smallCache()
	c.Access(0x300)
	if !c.Invalidate(0x300) {
		t.Error("invalidate missed present line")
	}
	if c.Contains(0x300) {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0x300) {
		t.Error("invalidate hit absent line")
	}
}

func TestCacheInvalidateAllFiresHooks(t *testing.T) {
	c := smallCache()
	n := 0
	c.SetEvictHook(func(uint64) { n++ })
	c.Access(0x000)
	c.Access(0x040)
	c.Access(0x080)
	c.InvalidateAll()
	if n != 3 {
		t.Errorf("hook fired %d times, want 3", n)
	}
}

func TestCacheLookupDoesNotFill(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x500) {
		t.Error("lookup hit cold line")
	}
	if c.Contains(0x500) {
		t.Error("lookup filled the cache")
	}
}

func TestEvictHookAddressRoundtrip(t *testing.T) {
	// The hook must report the line-aligned address of the evicted
	// line, for any address.
	c := NewCache("t", CacheConfig{Sets: 8, Ways: 1, LineSize: 32})
	f := func(addr uint32) bool {
		a := uint64(addr)
		var got uint64
		hit := false
		c.SetEvictHook(func(line uint64) { got = line; hit = true })
		c.Access(a)
		c.Access(a + 8*32) // same set, forces eviction
		c.SetEvictHook(nil)
		return hit && got == a>>5<<5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Sets: 3, Ways: 1, LineSize: 64},
		{Sets: 4, Ways: 0, LineSize: 64},
		{Sets: 4, Ways: 1, LineSize: 48},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewCache("bad", cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy()
	if lat := h.AccessData(0x1000); lat != MemLatency {
		t.Errorf("cold access latency %d, want DRAM %d", lat, MemLatency)
	}
	if lat := h.AccessData(0x1000); lat != L1Latency {
		t.Errorf("warm access latency %d, want L1 %d", lat, L1Latency)
	}
}

func TestHierarchyDataCachedLevels(t *testing.T) {
	h := NewHierarchy()
	if lvl := h.DataCached(0x2000); lvl != 0 {
		t.Errorf("cold level %d", lvl)
	}
	h.AccessData(0x2000)
	if lvl := h.DataCached(0x2000); lvl != 1 {
		t.Errorf("warm level %d", lvl)
	}
	// After flushing only L1, the line must still sit in L2/LLC.
	h.L1D().Invalidate(0x2000)
	if lvl := h.DataCached(0x2000); lvl != 2 {
		t.Errorf("level after L1 invalidation %d, want 2", lvl)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy()
	h.AccessData(0x3000)
	h.Flush(0x3000)
	if lvl := h.DataCached(0x3000); lvl != 0 {
		t.Errorf("line at level %d after clflush", lvl)
	}
}

func TestHierarchyInstPathAndITLB(t *testing.T) {
	h := NewHierarchy()
	cold := h.AccessInst(0x4000)
	warm := h.AccessInst(0x4000)
	if warm >= cold {
		t.Errorf("warm fetch %d not faster than cold %d", warm, cold)
	}
	if !h.InstCached(0x4000) {
		t.Error("L1I missed after fetch")
	}
	flushed := false
	h.SetITLBFlushHook(func() { flushed = true })
	h.FlushITLB()
	if !flushed {
		t.Error("iTLB flush hook not fired")
	}
	// Next fetch pays the page walk again.
	if lat := h.AccessInst(0x4000); lat <= L1Latency {
		t.Errorf("post-flush fetch latency %d too low (no page walk)", lat)
	}
}

func TestHierarchyStats(t *testing.T) {
	h := NewHierarchy()
	h.AccessData(0x5000)
	h.AccessData(0x5000)
	st := h.Stats()
	if st.LLCRefs != 1 || st.LLCMisses != 1 {
		t.Errorf("LLC refs %d misses %d, want 1/1", st.LLCRefs, st.LLCMisses)
	}
	if st.L1D.Hits != 1 {
		t.Errorf("L1D hits %d", st.L1D.Hits)
	}
}

func TestCacheConfigHelpers(t *testing.T) {
	cfg := CacheConfig{Sets: 64, Ways: 8, LineSize: 64}
	if cfg.Lines() != 512 {
		t.Errorf("lines %d", cfg.Lines())
	}
	if cfg.Bytes() != 32768 {
		t.Errorf("bytes %d", cfg.Bytes())
	}
}

// TestNewCacheAllocsConstantInSets pins that building a level costs the
// same number of allocations at 64 sets as at 8192 (the LLC's count):
// the rows share one backing array instead of one allocation per set.
// The slack absorbs the few allocations the runtime makes in the
// background (more of them under -race); one per set would be 8128.
func TestNewCacheAllocsConstantInSets(t *testing.T) {
	const slack = 10
	allocs := func(sets int) float64 {
		cfg := CacheConfig{Sets: sets, Ways: 16, LineSize: 64}
		return testing.AllocsPerRun(20, func() { NewCache("t", cfg) })
	}
	if small, large := allocs(64), allocs(8192); large > small+slack {
		t.Errorf("NewCache allocations: %v at 64 sets, %v at 8192 sets; want at most %d more", small, large, slack)
	}
}

// TestCacheRowsCappedAtWays pins the per-set rows of a level: there is
// one row per set, and every row's length and capacity is exactly Ways,
// so an append to one row reallocates instead of overwriting the next.
func TestCacheRowsCappedAtWays(t *testing.T) {
	cfg := CacheConfig{Sets: 64, Ways: 12, LineSize: 64}
	c := NewCache("t", cfg)
	if got := len(c.sets.All()); got != cfg.Sets*cfg.Ways {
		t.Fatalf("%d lines, want %d", got, cfg.Sets*cfg.Ways)
	}
	for i := 0; i < cfg.Sets; i++ {
		row := c.sets.Row(i)
		if len(row) != cfg.Ways || cap(row) != cfg.Ways {
			t.Fatalf("row %d: len %d cap %d, want %d/%d", i, len(row), cap(row), cfg.Ways, cfg.Ways)
		}
	}
}

// TestCacheResetEqualsNew pins Reset against construction: a level
// that filled, evicted and counted, once reset, saves the same
// snapshot as a new level and fires no eviction hook.
func TestCacheResetEqualsNew(t *testing.T) {
	cfg := CacheConfig{Sets: 64, Ways: 2, LineSize: 64}
	c := NewCache("t", cfg)
	evicted := 0
	c.SetEvictHook(func(uint64) { evicted++ })
	for a := uint64(0); a < 512*64; a += 64 {
		c.Access(a)
	}
	if evicted == 0 {
		t.Fatal("set-up filled no set past capacity")
	}
	before := evicted
	c.Reset()
	var got, want CacheState
	c.Save(&got)
	NewCache("t", cfg).Save(&want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset level saves %+v, a new one %+v", got, want)
	}
	for a := uint64(0); a < 512*64; a += 64 {
		c.Access(a)
	}
	if evicted != before {
		t.Errorf("eviction hook survived Reset: %d calls after it", evicted-before)
	}
}

// TestCacheRestoreRejectsForeignSnapshot pins the geometry check: a
// snapshot restores only into a level with the same sets and ways.
func TestCacheRestoreRejectsForeignSnapshot(t *testing.T) {
	base := CacheConfig{Sets: 64, Ways: 8, LineSize: 64}
	var s CacheState
	src := NewCache("t", base)
	src.Access(0x40)
	src.Save(&s)
	for _, tc := range []struct {
		name string
		cfg  CacheConfig
	}{
		{"sets", CacheConfig{Sets: 128, Ways: 8, LineSize: 64}},
		{"ways", CacheConfig{Sets: 64, Ways: 4, LineSize: 64}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore into a level of different geometry did not panic", tc.name)
				}
			}()
			NewCache("t", tc.cfg).Restore(&s)
		}()
	}
}
