package uopcache

import (
	"reflect"
	"testing"
	"testing/quick"

	"deaduops/internal/isa"
)

// mkMacro builds a MacroUops of n single-slot NOP µops at addr.
func mkMacro(addr uint64, byteLen uint8, nUops int) MacroUops {
	m := MacroUops{Addr: addr, Len: byteLen}
	for i := 0; i < nUops; i++ {
		m.Uops = append(m.Uops, isa.Uop{
			Op: isa.NOP, Index: uint8(i), Count: uint8(nUops),
			MacroAddr: addr, MacroLen: byteLen, Slots: 1,
		})
	}
	return m
}

func mkJump(addr uint64, target uint64) MacroUops {
	m := MacroUops{Addr: addr, Len: 2, UncondJump: true, Branch: true}
	m.Uops = []isa.Uop{{
		Op: isa.JMP, Count: 1, MacroAddr: addr, MacroLen: 2,
		Slots: 1, Imm: int64(target), BranchPC: addr,
	}}
	return m
}

func mkBranch(addr uint64) MacroUops {
	m := MacroUops{Addr: addr, Len: 2, Branch: true}
	m.Uops = []isa.Uop{{
		Op: isa.JCC, Count: 1, MacroAddr: addr, MacroLen: 2,
		Slots: 1, BranchPC: addr,
	}}
	return m
}

// simpleTrace builds a cacheable 1-line trace of n µops for a region.
func simpleTrace(cfg Config, region uint64, n int) *Trace {
	return BuildTrace(cfg, region, 0, []MacroUops{mkMacro(region, uint8(n), n)})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 8, SlotsPerLine: 6},
		{Sets: 32, Ways: 0, SlotsPerLine: 6},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Skylake()
	if cfg.Capacity() != 1536 {
		t.Errorf("Skylake capacity %d, want 1536 µops", cfg.Capacity())
	}
	if cfg.RegionSize() != 32 {
		t.Errorf("region size %d", cfg.RegionSize())
	}
}

// competitive is Skylake's geometry under AMD's competitive SMT
// sharing.
func competitive() Config {
	c := Skylake()
	c.SMT = ShareCompetitive
	return c
}

func TestTraceSingleLine(t *testing.T) {
	cfg := Skylake()
	tr := simpleTrace(cfg, 0x1000, 6)
	if !tr.Cacheable || len(tr.Lines) != 1 || len(tr.Uops) != 6 {
		t.Errorf("trace %+v", tr)
	}
}

func TestTraceMacroOpNeverSplitsLines(t *testing.T) {
	cfg := Skylake()
	// 4 µops + 4 µops: the second macro-op does not fit the first
	// line's remaining 2 slots, so it must start line 2 whole.
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		mkMacro(0x1000, 8, 4),
		mkMacro(0x1008, 8, 4),
	})
	if !tr.Cacheable || len(tr.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(tr.Lines))
	}
	if tr.Lines[0].Slots != 4 || tr.Lines[1].Slots != 4 {
		t.Errorf("slots %d/%d, want 4/4", tr.Lines[0].Slots, tr.Lines[1].Slots)
	}
}

func TestTraceImm64TwoSlots(t *testing.T) {
	cfg := Skylake()
	m := mkMacro(0x1000, 10, 1)
	m.Uops[0].Slots = 2 // 64-bit immediate
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		m,
		mkMacro(0x100A, 10, 5),
	})
	// 2 + 5 slots > 6: the second macro-op spills to line 2.
	if !tr.Cacheable || len(tr.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(tr.Lines))
	}
}

func TestTraceJumpTerminatesLine(t *testing.T) {
	cfg := Skylake()
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		mkMacro(0x1000, 2, 2),
		mkJump(0x1002, 0x2000),
	})
	if !tr.Cacheable || len(tr.Lines) != 1 {
		t.Fatalf("trace %+v", tr)
	}
	last := tr.Lines[0].Uops[len(tr.Lines[0].Uops)-1]
	if last.Op != isa.JMP {
		t.Error("jump is not the last µop of its line")
	}
}

func TestTraceMaxTwoBranchesPerLine(t *testing.T) {
	cfg := Skylake()
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		mkBranch(0x1000),
		mkBranch(0x1002),
		mkBranch(0x1004), // third branch forces a new line
	})
	if !tr.Cacheable || len(tr.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(tr.Lines))
	}
	if tr.Lines[0].Branches != 2 || tr.Lines[1].Branches != 1 {
		t.Errorf("branch split %d/%d", tr.Lines[0].Branches, tr.Lines[1].Branches)
	}
}

func TestTraceMSROMOwnsALine(t *testing.T) {
	cfg := Skylake()
	ms := mkMacro(0x1002, 3, 8)
	ms.Microcoded = true
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		mkMacro(0x1000, 2, 2),
		ms,
		mkMacro(0x1005, 2, 2),
	})
	if !tr.Cacheable || len(tr.Lines) != 3 {
		t.Fatalf("lines = %d, want 3 (nops | msrom | nops)", len(tr.Lines))
	}
	if !tr.Lines[1].MSROM {
		t.Error("middle line not MSROM")
	}
}

func TestTraceEighteenUopCap(t *testing.T) {
	cfg := Skylake()
	var macros []MacroUops
	for i := 0; i < 18; i++ {
		macros = append(macros, mkMacro(0x1000+uint64(i), 1, 1))
	}
	tr := BuildTrace(cfg, 0x1000, 0, macros)
	if !tr.Cacheable || len(tr.Lines) != 3 {
		t.Fatalf("18 µops: cacheable=%v lines=%d", tr.Cacheable, len(tr.Lines))
	}
	macros = append(macros, mkMacro(0x1012, 1, 1))
	tr = BuildTrace(cfg, 0x1000, 0, macros)
	if tr.Cacheable {
		t.Error("19 µops cached — exceeds the 3-line region cap")
	}
	if tr.Reason != "too-many-lines" {
		t.Errorf("reason %q", tr.Reason)
	}
}

func TestTraceUncacheableOp(t *testing.T) {
	cfg := Skylake()
	p := mkMacro(0x1000, 2, 1)
	p.Uncacheable = true // PAUSE
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{p})
	if tr.Cacheable {
		t.Error("PAUSE region cached")
	}
	if tr.Reason != "uncacheable-op" {
		t.Errorf("reason %q", tr.Reason)
	}
}

func TestTraceTooWideMacroOp(t *testing.T) {
	cfg := Skylake()
	tr := BuildTrace(cfg, 0x1000, 0, []MacroUops{mkMacro(0x1000, 4, 7)})
	if tr.Cacheable || tr.Reason != "macro-op-too-wide" {
		t.Errorf("7-µop non-microcoded macro-op: %+v", tr)
	}
}

func TestTraceEmpty(t *testing.T) {
	cfg := Skylake()
	tr := BuildTrace(cfg, 0x1000, 0, nil)
	if tr.Cacheable {
		t.Error("empty trace cacheable")
	}
}

func TestLookupFillRoundtrip(t *testing.T) {
	c := New(Skylake())
	tr := simpleTrace(c.Config(), 0x1000, 6)
	if _, hit := c.Lookup(0, 0x1000); hit {
		t.Error("cold lookup hit")
	}
	c.Fill(0, tr)
	uops, hit := c.Lookup(0, 0x1000)
	if !hit || len(uops) != 6 {
		t.Fatalf("warm lookup: hit=%v n=%d", hit, len(uops))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestLookupKeyedByEntryOffset(t *testing.T) {
	c := New(Skylake())
	tr := BuildTrace(c.Config(), 0x1000, 8, []MacroUops{mkMacro(0x1008, 4, 3)})
	c.Fill(0, tr)
	if _, hit := c.Lookup(0, 0x1008); !hit {
		t.Error("matching entry offset missed")
	}
	if _, hit := c.Lookup(0, 0x1000); hit {
		t.Error("different entry offset hit")
	}
}

func TestFillUncacheableCounted(t *testing.T) {
	c := New(Skylake())
	p := mkMacro(0x1000, 2, 1)
	p.Uncacheable = true
	c.Fill(0, BuildTrace(c.Config(), 0x1000, 0, []MacroUops{p}))
	if c.Stats().Uncacheable != 1 {
		t.Errorf("uncacheable count %d", c.Stats().Uncacheable)
	}
	if n := len(c.Snapshot()); n != 0 {
		t.Errorf("%d lines installed for uncacheable trace", n)
	}
}

func TestHotnessProtectsResidents(t *testing.T) {
	c := New(Skylake())
	cfg := c.Config()
	// Fill set 0 completely with 8 hot resident lines.
	for w := 0; w < 8; w++ {
		region := uint64(w) * 1024
		c.Fill(0, simpleTrace(cfg, region, 6))
		for i := 0; i < 8; i++ {
			c.Lookup(0, region) // heat to the cap
		}
	}
	// A single fill attempt must fail against hot residents.
	c.Fill(0, simpleTrace(cfg, 8*1024, 6))
	if _, hit := c.Lookup(0, 8*1024); hit {
		t.Error("cold challenger displaced a hot resident immediately")
	}
	if c.Stats().FillFailures == 0 {
		t.Error("no fill failure recorded")
	}
	// Persistent pressure (more attempts than the total resident
	// hotness) must eventually displace.
	for i := 0; i < 100; i++ {
		c.Fill(0, simpleTrace(cfg, 8*1024, 6))
	}
	if _, hit := c.Lookup(0, 8*1024); !hit {
		t.Error("persistent challenger never displaced a resident")
	}
}

func TestMultiLineTraceAllOrNothing(t *testing.T) {
	c := New(Skylake())
	cfg := c.Config()
	var macros []MacroUops
	for i := 0; i < 12; i++ {
		macros = append(macros, mkMacro(0x1000+uint64(i), 1, 1))
	}
	tr := BuildTrace(cfg, 0x1000, 0, macros) // 2 lines
	c.Fill(0, tr)
	if uops, hit := c.Lookup(0, 0x1000); !hit || len(uops) != 12 {
		t.Fatalf("multi-line lookup: %v %d", hit, len(uops))
	}
	// Invalidate one line of the trace: the whole trace must miss.
	for _, li := range c.Snapshot() {
		if li.Region == 0x1000 && li.Seq == 1 {
			c.InvalidateCodeLine(li.Region, 64)
			break
		}
	}
	if _, hit := c.Lookup(0, 0x1000); hit {
		t.Error("partial trace hit")
	}
}

func TestInvalidateCodeLine(t *testing.T) {
	c := New(Skylake())
	cfg := c.Config()
	// Two regions inside one 64-byte icache line, one outside.
	c.Fill(0, simpleTrace(cfg, 0x1000, 3))
	c.Fill(0, simpleTrace(cfg, 0x1020, 3))
	c.Fill(0, simpleTrace(cfg, 0x1040, 3))
	c.InvalidateCodeLine(0x1000, 64)
	if _, hit := c.Lookup(0, 0x1000); hit {
		t.Error("region 0x1000 survived icache-line invalidation")
	}
	if _, hit := c.Lookup(0, 0x1020); hit {
		t.Error("region 0x1020 survived icache-line invalidation")
	}
	if _, hit := c.Lookup(0, 0x1040); !hit {
		t.Error("region 0x1040 wrongly invalidated")
	}
}

func TestFlushAll(t *testing.T) {
	c := New(Skylake())
	c.Fill(0, simpleTrace(c.Config(), 0x1000, 6))
	c.FlushAll()
	if len(c.Snapshot()) != 0 {
		t.Error("lines survived FlushAll")
	}
	if c.Stats().FlushAll != 1 {
		t.Error("flush not counted")
	}
}

func TestIntelSMTPartitioning(t *testing.T) {
	c := New(Skylake())
	if c.VisibleSets(0) != 32 {
		t.Errorf("single-thread visible sets %d", c.VisibleSets(0))
	}
	c.SetSMTMode(true)
	if c.VisibleSets(0) != 16 || c.VisibleSets(1) != 16 {
		t.Errorf("SMT visible sets %d/%d", c.VisibleSets(0), c.VisibleSets(1))
	}
	// Threads filling the same address must land in different banks.
	c.Fill(0, simpleTrace(c.Config(), 0x1000, 6))
	c.Fill(1, simpleTrace(c.Config(), 0x1000, 6))
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("%d lines for two thread fills", len(snap))
	}
	if snap[0].Set == snap[1].Set {
		t.Error("Intel SMT threads share a physical set")
	}
	// Mode switch flushes (the set mapping moves).
	c.SetSMTMode(false)
	if len(c.Snapshot()) != 0 {
		t.Error("lines survived SMT mode change")
	}
}

// TestPrivilegePartition checks the §VIII privilege-partition state:
// each domain sees half the sets, user and kernel fills of one region
// land in disjoint halves, and kernel fills never evict user lines.
func TestPrivilegePartition(t *testing.T) {
	c := New(Skylake())
	c.PartitionByDomain()
	cfg := c.Config()
	half := cfg.Sets / 2
	for _, d := range []int{0, 1} {
		c.SetDomain(0, d)
		c.SetDomain(1, d)
		if c.VisibleSets(0) != half || c.VisibleSets(1) != half {
			t.Errorf("domain %d: visible sets %d/%d, want %d", d, c.VisibleSets(0), c.VisibleSets(1), half)
		}
	}

	// regionFor returns the k-th region whose set index is idx.
	regionFor := func(idx, k int) uint64 {
		return uint64(idx+k*cfg.Sets) * cfg.RegionSize()
	}
	// The user domain fills every way of every set it can reach.
	c.SetDomain(0, 0)
	var user []uint64
	for idx := 0; idx < half; idx++ {
		for k := 0; k < cfg.Ways; k++ {
			r := regionFor(idx, k)
			c.Fill(0, simpleTrace(cfg, r, 6))
			user = append(user, r)
		}
	}
	for _, li := range c.Snapshot() {
		if li.Set >= half {
			t.Fatalf("user line for %#x in set %d, outside the user half", li.Region, li.Set)
		}
	}

	// Kernel fills of the same regions land in the other half.
	c.SetDomain(0, 1)
	for _, r := range user {
		c.Fill(0, simpleTrace(cfg, r, 6))
	}
	sets := map[uint64][]int{}
	for _, li := range c.Snapshot() {
		sets[li.Region] = append(sets[li.Region], li.Set)
	}
	for _, r := range user {
		if got := sets[r]; len(got) != 2 || (got[0] < half) == (got[1] < half) {
			t.Errorf("user and kernel fills of %#x in sets %v, want one per half", r, got)
		}
	}

	// Kernel fills hammering every set index with twice as many more
	// regions displace every line the kernel can reach, and none of the
	// user's.
	evictions := c.Stats().Evictions
	for idx := 0; idx < cfg.Sets; idx++ {
		for k := cfg.Ways; k < 3*cfg.Ways; k++ {
			c.Fill(0, simpleTrace(cfg, regionFor(idx, k), 6))
		}
	}
	if c.Stats().Evictions == evictions {
		t.Fatal("kernel fills evicted nothing; the test exerts no pressure")
	}
	c.SetDomain(0, 0)
	for _, r := range user {
		if !c.Present(0, r) {
			t.Errorf("kernel fills evicted user region %#x", r)
		}
	}
}

func TestAMDCompetitiveSharing(t *testing.T) {
	c := New(competitive())
	c.SetSMTMode(true)
	if c.VisibleSets(0) != 32 {
		t.Errorf("competitive sharing visible sets %d", c.VisibleSets(0))
	}
	c.Fill(0, simpleTrace(c.Config(), 0x1000, 6))
	c.Fill(1, simpleTrace(c.Config(), 0x1000, 6))
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Set != snap[1].Set {
		t.Error("AMD SMT threads must compete for the same physical set")
	}
	// Lookups are thread-tagged even when capacity is shared.
	if _, hit := c.Lookup(0, 0x1000); !hit {
		t.Error("thread-0 lookup missed its own line")
	}
}

func TestStreamedUopsCounter(t *testing.T) {
	c := New(Skylake())
	c.Fill(0, simpleTrace(c.Config(), 0x1000, 5))
	c.Lookup(0, 0x1000)
	c.Lookup(0, 0x1000)
	if got := c.Stats().StreamedUops; got != 10 {
		t.Errorf("streamed µops %d, want 10", got)
	}
}

// TestLongestTraceHits fills a trace of the longest legal line count
// and requires it to hit.
func TestLongestTraceHits(t *testing.T) {
	c := New(Skylake())
	tr := &Trace{Region: 0x1000, Uops: make([]isa.Uop, MaxLinesPerRegion),
		Lines: make([]LineUops, MaxLinesPerRegion), Cacheable: true}
	for i := range tr.Lines {
		tr.Uops[i] = isa.Uop{Op: isa.NOP, Slots: 1}
		tr.Lines[i] = LineUops{Uops: tr.Uops[i : i+1 : i+1], Slots: 1}
	}
	c.Fill(0, tr)
	uops, ok := c.Lookup(0, 0x1000)
	if !ok || len(uops) != MaxLinesPerRegion {
		t.Errorf("%d-line trace: hit %v with %d µops", MaxLinesPerRegion, ok, len(uops))
	}
}

// TestLookupReturnsLatestTrace pins the assumption Lookup rests on:
// a fill drops every line of the same (thread, region, entry) before
// installing its own, so after a 3-line trace is replaced by a 1-line
// one under the same key, a hit returns exactly the second trace's
// µops, not a mix of the two.
func TestLookupReturnsLatestTrace(t *testing.T) {
	cfg := Skylake()
	c := New(cfg)
	long := BuildTrace(cfg, 0x1000, 0, []MacroUops{
		mkMacro(0x1000, 4, 4), mkMacro(0x1004, 4, 4), mkMacro(0x1008, 4, 4),
	})
	if !long.Cacheable || len(long.Lines) != 3 {
		t.Fatalf("set-up: long trace has %d lines, cacheable %v", len(long.Lines), long.Cacheable)
	}
	short := simpleTrace(cfg, 0x1000, 2)
	c.Fill(0, long)
	c.Fill(0, short)
	uops, hit := c.Lookup(0, 0x1000)
	if !hit {
		t.Fatal("lookup of the refilled key missed")
	}
	if len(uops) != len(short.Uops) || &uops[0] != &short.Uops[0] {
		t.Errorf("lookup returned %d µops, want the second trace's %d", len(uops), len(short.Uops))
	}
	if n := len(c.Snapshot()); n != 1 {
		t.Errorf("%d lines cached, want the second trace's 1", n)
	}
}

func TestPresentDoesNotPerturb(t *testing.T) {
	c := New(Skylake())
	c.Fill(0, simpleTrace(c.Config(), 0x1000, 6))
	before := c.Stats()
	snapBefore := c.Snapshot()
	if !c.Present(0, 0x1000) {
		t.Error("present missed")
	}
	if c.Present(0, 0x2000) {
		t.Error("present hit absent region")
	}
	if c.Stats() != before {
		t.Error("Present changed statistics")
	}
	snapAfter := c.Snapshot()
	if len(snapBefore) != len(snapAfter) || snapBefore[0].Hotness != snapAfter[0].Hotness {
		t.Error("Present changed line state")
	}
}

func TestOccupancyNeverExceedsWays(t *testing.T) {
	c := New(Skylake())
	cfg := c.Config()
	// Property: any fill sequence keeps every set within its ways.
	f := func(regions []uint16) bool {
		for _, r := range regions {
			region := uint64(r) &^ 31
			c.Fill(0, simpleTrace(cfg, region, 1+int(r%6)))
		}
		for s := 0; s < cfg.Sets; s++ {
			if c.OccupiedWays(s) > cfg.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PartitionStatic.String() != "static-partition" ||
		ShareCompetitive.String() != "competitive" {
		t.Error("policy strings wrong")
	}
}

// TestTraceBuilderInvariants property-checks the placement rules over
// random macro-op sequences: every produced line respects the slot and
// branch caps, lines never split a macro-op, and any cacheable trace
// fits the per-region way budget, and the lines are consecutive runs
// of the trace's one µop slice.
func TestTraceBuilderInvariants(t *testing.T) {
	cfg := Skylake()
	f := func(shape []uint8) bool {
		var macros []MacroUops
		addr := uint64(0x1000)
		for _, s := range shape {
			n := 1 + int(s%4) // 1-4 µops (complex-decoder range)
			m := mkMacro(addr, uint8(n), n)
			switch s % 7 {
			case 5:
				m.Branch = true
				m.Uops = m.Uops[:1]
				m.Uops[0].Op = isa.JCC
				m.Uops[0].Count = 1
			case 6:
				m.Microcoded = true
			}
			macros = append(macros, m)
			addr += uint64(n)
			if addr >= 0x1020 {
				break
			}
		}
		tr := BuildTrace(cfg, 0x1000, 0, macros)
		if !tr.Cacheable {
			return true // rejection is always safe
		}
		if len(tr.Lines) > MaxLinesPerRegion {
			return false
		}
		// The lines are capped subslices of Uops that concatenate to it.
		off := 0
		for _, l := range tr.Lines {
			if cap(l.Uops) != len(l.Uops) || off+len(l.Uops) > len(tr.Uops) ||
				(len(l.Uops) > 0 && &l.Uops[0] != &tr.Uops[off]) {
				return false
			}
			off += len(l.Uops)
		}
		if off != len(tr.Uops) {
			return false
		}
		for _, l := range tr.Lines {
			if !l.MSROM && l.Slots > cfg.SlotsPerLine {
				return false
			}
			if l.Branches > MaxBranchesPerLine {
				return false
			}
			// Micro-ops of one macro-op must be contiguous in one line.
			seen := map[uint64]uint8{}
			for _, u := range l.Uops {
				if prev, ok := seen[u.MacroAddr]; ok && u.Index != prev+1 {
					return false
				}
				seen[u.MacroAddr] = u.Index
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLookupNeverReturnsPartialTrace property-checks that a lookup hit
// always returns the full micro-op sequence that was filled.
func TestLookupNeverReturnsPartialTrace(t *testing.T) {
	cfg := Skylake()
	c := New(cfg)
	f := func(nUops uint8, churn []uint16) bool {
		n := 1 + int(nUops%18)
		var macros []MacroUops
		for i := 0; i < n; i++ {
			macros = append(macros, mkMacro(0x1000+uint64(i), 1, 1))
		}
		tr := BuildTrace(cfg, 0x1000, 0, macros)
		c.Fill(0, tr)
		want := -1
		if tr.Cacheable {
			want = len(tr.Uops)
		}
		// Random competing fills churn the set.
		for _, v := range churn {
			region := uint64(v&0x1F) * 1024 // same set 0 bank
			c.Fill(0, simpleTrace(cfg, region+0x40000, 1+int(v%6)))
		}
		uops, hit := c.Lookup(0, 0x1000)
		if !hit {
			return true // a miss is always acceptable
		}
		return want > 0 && len(uops) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNewAllocsConstantInSets pins that building the cache costs the
// same number of allocations at 32 sets as at 4096: the rows share one
// backing array instead of one allocation per set. The slack absorbs
// the few allocations the runtime makes in the background (more of
// them under -race); one per set would be 4064.
func TestNewAllocsConstantInSets(t *testing.T) {
	const slack = 10
	allocs := func(sets int) float64 {
		cfg := Skylake()
		cfg.Sets = sets
		return testing.AllocsPerRun(20, func() { New(cfg) })
	}
	if small, large := allocs(32), allocs(4096); large > small+slack {
		t.Errorf("New allocations: %v at 32 sets, %v at 4096 sets; want at most %d more", small, large, slack)
	}
}

// TestRowsCappedAtWays pins the per-set rows of the cache: there is
// one row per set, and every row's length and capacity is exactly Ways.
func TestRowsCappedAtWays(t *testing.T) {
	c := New(Skylake())
	if got := len(c.sets.All()); got != c.cfg.Sets*c.cfg.Ways {
		t.Fatalf("%d lines, want %d", got, c.cfg.Sets*c.cfg.Ways)
	}
	for i := 0; i < c.cfg.Sets; i++ {
		row := c.sets.Row(i)
		if len(row) != c.cfg.Ways || cap(row) != c.cfg.Ways {
			t.Fatalf("row %d: len %d cap %d, want %d/%d", i, len(row), cap(row), c.cfg.Ways, c.cfg.Ways)
		}
	}
}

// TestRestoreRejectsForeignSnapshot pins the geometry check: a
// snapshot restores only into a cache with the same sets and ways.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	var s State
	New(Skylake()).Save(&s)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sets", func() Config { c := Skylake(); c.Sets = 64; return c }()},
		{"ways", func() Config { c := Skylake(); c.Ways = 12; return c }()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore into a cache of different geometry did not panic", tc.name)
				}
			}()
			New(tc.cfg).Restore(&s)
		}()
	}
}

// TestSaveScalesWithFilledSets pins the sparse snapshot: it holds one
// row per filled set, a set filled after the Save is empty again after
// the Restore (the static receiver model forks each probe direction
// from one primed snapshot and relies on this), and hotness, the
// victim pointers and the counters round-trip.
func TestSaveScalesWithFilledSets(t *testing.T) {
	cfg := Skylake()
	c := New(cfg)
	// Sets 0..2: set 0 is filled past its ways, so a fill attempt
	// advances its victim pointer; set 1 is heated by lookups.
	for w := 0; w <= cfg.Ways; w++ {
		c.Fill(0, simpleTrace(cfg, uint64(w)*1024, 6))
	}
	c.Fill(0, simpleTrace(cfg, 32, 6))
	c.Lookup(0, 32)
	c.Lookup(0, 32)
	c.Fill(0, simpleTrace(cfg, 64, 6))
	const k = 3
	var s State
	c.Save(&s)
	if s.sets.Len() != k {
		t.Fatalf("snapshot holds %d sets after filling %d", s.sets.Len(), k)
	}
	if c.victimPtr[0] == 0 {
		t.Fatal("set-up did not advance set 0's victim pointer")
	}
	want, wantPtr, wantStats := c.Snapshot(), append([]int(nil), c.victimPtr...), c.Stats()

	for i := 0; i < 4; i++ {
		c.Fill(0, simpleTrace(cfg, uint64(cfg.Ways+1)*1024, 6))
	}
	c.Lookup(0, 32)
	c.Fill(0, simpleTrace(cfg, 10*32, 6))
	c.Restore(&s)

	if c.OccupiedWays(10) != 0 || c.Present(0, 10*32) {
		t.Error("set filled after the Save survived the Restore")
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored lines differ from the snapshot:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(c.victimPtr, wantPtr) {
		t.Errorf("victim pointers %v after Restore, want %v", c.victimPtr, wantPtr)
	}
	if c.Stats() != wantStats {
		t.Errorf("stats %+v after Restore, want %+v", c.Stats(), wantStats)
	}
}
