package staticlint_test

// The analyzer's micro-op cache footprint: the fold over a path's
// decoded segments that the footprint-divergence checker compares.

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/staticlint"
	"deaduops/internal/uopcache"
)

// totalWays sums f's way occupancy across sets.
func totalWays(f uopcache.FootprintResult) int {
	n := 0
	for _, w := range f.Sets {
		n += w
	}
	return n
}

// span returns the [start, end) address interval of p's image.
func span(p *asm.Program) (uint64, uint64) {
	last := p.Insts[len(p.Insts)-1]
	return p.Insts[0].Addr, last.End()
}

func TestFootprintSingleRegion(t *testing.T) {
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	b.Movi(isa.R1, 1)
	b.Movi(isa.R2, 2)
	b.Halt()
	p := b.MustBuild()

	start, end := span(p)
	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: start, End: end})
	if len(f.Regions) != 1 {
		t.Fatalf("regions = %v, want 1", f.Regions)
	}
	r := f.Regions[0]
	if !r.Cacheable || r.Ways != 1 || r.Set != cfg.UopCache.SetIndexOf(0x1000) {
		t.Errorf("region = %+v", r)
	}
	if r.Uops < 3 {
		t.Errorf("uops = %d, want ≥ 3", r.Uops)
	}
	if totalWays(f) != 1 || f.Uncacheable != 0 {
		t.Errorf("footprint = %+v", f)
	}
}

func TestFootprintCrossesRegions(t *testing.T) {
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	for i := 0; i < 20; i++ { // 20 × 4-byte MOVI = 80 bytes: 3 regions
		b.Movi(isa.R1, int64(i))
	}
	b.Halt()
	p := b.MustBuild()

	start, end := span(p)
	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: start, End: end})
	if len(f.Regions) < 3 {
		t.Fatalf("regions = %d, want ≥ 3 for an 80-byte stream", len(f.Regions))
	}
	if len(f.Sets) < 3 {
		t.Errorf("sets = %v, want the stream spread over ≥ 3 sets", f.Sets)
	}
}

func TestFootprintUncondJumpEndsTrace(t *testing.T) {
	// A JMP mid-region terminates the trace; the jump target starts a
	// fresh (region, entry) trace even within the same region.
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	b.Jmp("tail")
	b.Label("tail")
	b.Movi(isa.R1, 1)
	b.Halt()
	p := b.MustBuild()

	start, end := span(p)
	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: start, End: end})
	if len(f.Regions) != 2 {
		t.Fatalf("regions = %+v, want jmp trace + tail trace", f.Regions)
	}
	if f.Regions[0].Region != f.Regions[1].Region {
		t.Fatalf("traces in different regions: %+v", f.Regions)
	}
	if f.Regions[0].Entry == f.Regions[1].Entry {
		t.Errorf("distinct traces share an entry: %+v", f.Regions)
	}
	if f.Sets[cfg.UopCache.SetIndexOf(0x1000)] != 2 {
		t.Errorf("same-region traces must stack ways in one set: %v", f.Sets)
	}
}

func TestFootprintRangesDedup(t *testing.T) {
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	b.Movi(isa.R1, 1)
	b.Halt()
	p := b.MustBuild()

	start, end := span(p)
	r := uopcache.Range{Start: start, End: end}
	f := staticlint.Footprint(cfg, p, r, r)
	if len(f.Regions) != 1 || totalWays(f) != 1 {
		t.Errorf("revisited trace double-counted: %+v", f)
	}
}

func TestFootprintGapSegmentsTrace(t *testing.T) {
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	b.Movi(isa.R1, 1)
	b.Org(0x1100)
	b.Movi(isa.R2, 2)
	b.Halt()
	p := b.MustBuild()

	start, end := span(p)
	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: start, End: end})
	if len(f.Regions) != 2 {
		t.Fatalf("regions = %+v, want one per side of the gap", f.Regions)
	}
	if f.Regions[0].Set == f.Regions[1].Set {
		t.Errorf("0x1000 and 0x1100 map to the same set: %+v", f.Regions)
	}
}

func TestFootprintUncacheableRegion(t *testing.T) {
	// Four microcoded macro-ops in one region need four lines — over
	// the 3-lines-per-region cap, so the region is uncacheable.
	cfg := staticlint.DefaultConfig()
	b := asm.New(0x1000)
	for i := 0; i < 4; i++ {
		b.Msrom(5)
	}
	b.Halt()
	p := b.MustBuild()

	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: 0x1000, End: 0x1020})
	if f.Uncacheable != 1 {
		t.Fatalf("uncacheable = %d, want 1; regions %+v", f.Uncacheable, f.Regions)
	}
	r := f.Regions[0]
	if r.Cacheable || r.Reason != "too-many-lines" {
		t.Errorf("region = %+v", r)
	}
	if totalWays(f) != 0 {
		t.Errorf("uncacheable region charged ways: %v", f.Sets)
	}
}

func TestFootprintMatchesSimulatorFill(t *testing.T) {
	// The static prediction must agree with what the cycle-level fetch
	// engine actually leaves in the micro-op cache after streaming the
	// same straight-line code.
	b := asm.New(0x1000)
	for i := 0; i < 30; i++ {
		b.Movi(isa.R1, int64(i))
		b.Addi(isa.R2, 1)
	}
	b.Halt()
	p := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(p)
	res := c.Run(0, 0x1000, 100_000)
	if res.TimedOut {
		t.Fatal("run timed out")
	}

	cfg := staticlint.DefaultConfig()
	cfg.UopCache = c.Config().UopCache
	start, end := span(p)
	f := staticlint.Footprint(cfg, p, uopcache.Range{Start: start, End: end})
	got := map[int]int{}
	for _, li := range c.UopCache().Snapshot() {
		got[li.Set]++
	}
	for s, want := range f.Sets {
		if got[s] != want {
			t.Errorf("set %d: predicted %d ways, simulator filled %d (predicted %v, filled %v)",
				s, want, got[s], f.Sets, got)
			break
		}
	}
}
