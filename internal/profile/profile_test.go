package profile

import (
	"slices"
	"strings"
	"testing"

	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// TestRegistryRoundTrip pins name→config→name for every registered
// profile and the error contract for unknown names.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 registered profiles, have %v", names)
	}
	for _, name := range names {
		p, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("Get(%q) returned profile named %q", name, p.Name)
		}
		if p.Description == "" {
			t.Errorf("profile %q has no description", name)
		}
	}
	if _, err := Get("coffee-lake-9000"); err == nil {
		t.Fatal("unknown profile name accepted")
	} else if !strings.Contains(err.Error(), "skylake") {
		t.Errorf("unknown-profile error does not list registered names: %v", err)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d profiles, Names() %d", len(all), len(names))
	}
	for i, p := range all {
		if p.Name != names[i] {
			t.Errorf("All()[%d] = %q, want %q (name order)", i, p.Name, names[i])
		}
	}
}

// TestProfileOrder pins the literal profile order: the benchmark
// module and FuzzProbeModelReplay pick profiles by position in All().
func TestProfileOrder(t *testing.T) {
	want := []string{"mite-only", "skylake", "sunnycove", "zen", "zen2"}
	var got []string
	for _, p := range All() {
		got = append(got, p.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("All() = %v, want %v", got, want)
	}
	if names := Names(); !slices.Equal(names, want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
}

// TestGetReturnsFreshCopy guards against registry aliasing: mutating a
// returned profile must not corrupt the registered one.
func TestGetReturnsFreshCopy(t *testing.T) {
	p1, _ := Get("skylake")
	p1.UopCache.Ways = 1
	p1.Decode.JccAlignPenalty = 99
	p2, _ := Get("skylake")
	if p2.UopCache.Ways == 1 || p2.Decode.JccAlignPenalty == 99 {
		t.Fatal("Get returns an aliased profile; mutation leaked into the registry")
	}
}

// TestGeometryInvariants holds every registered profile to the
// structural constraints the placement rules assume.
func TestGeometryInvariants(t *testing.T) {
	for _, p := range All() {
		u := p.UopCache
		if u.Sets <= 0 || u.Sets&(u.Sets-1) != 0 {
			t.Errorf("%s: sets %d not a positive power of two", p.Name, u.Sets)
		}
		if u.Ways <= 0 || u.SlotsPerLine <= 0 {
			t.Errorf("%s: non-positive geometry %d ways × %d slots", p.Name, u.Ways, u.SlotsPerLine)
		}
		if uopcache.MaxLinesPerRegion > u.Ways {
			t.Errorf("%s: MaxLinesPerRegion %d exceeds %d ways", p.Name, uopcache.MaxLinesPerRegion, u.Ways)
		}
		if cap := p.UopCapLine(); cap < u.SlotsPerLine || cap > u.Ways*u.SlotsPerLine {
			t.Errorf("%s: region µop cap %d outside one line .. full set", p.Name, cap)
		}
		if p.Decode.DecodeWidth <= 0 {
			t.Errorf("%s: non-positive decode width %d", p.Name, p.Decode.DecodeWidth)
		}
		if p.Decode.JccAlignPenalty < 0 || u.SwitchPenalty < 0 {
			t.Errorf("%s: negative penalty (align %d, switch %d)",
				p.Name, p.Decode.JccAlignPenalty, u.SwitchPenalty)
		}
	}
}

// TestKnownGeometries pins the headline numbers of each built-in
// profile to the paper's characterization.
func TestKnownGeometries(t *testing.T) {
	cases := []struct {
		name              string
		sets, ways, slots int
		capacity          int
		smt               uopcache.SMTPolicy
		alignPenalty      int
		hasDSB            bool
	}{
		{"skylake", 32, 8, 6, 1536, uopcache.PartitionStatic, 2, true},
		{"sunnycove", 32, 12, 6, 2304, uopcache.PartitionStatic, 2, true},
		{"zen", 32, 8, 8, 2048, uopcache.ShareCompetitive, 0, true},
		{"zen2", 64, 8, 8, 4096, uopcache.ShareCompetitive, 0, true},
		{"mite-only", 32, 8, 6, 1536, uopcache.PartitionStatic, 2, false},
	}
	for _, c := range cases {
		p, err := Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		u := p.UopCache
		if u.Sets != c.sets || u.Ways != c.ways || u.SlotsPerLine != c.slots {
			t.Errorf("%s: geometry %d×%d×%d, want %d×%d×%d",
				c.name, u.Sets, u.Ways, u.SlotsPerLine, c.sets, c.ways, c.slots)
		}
		if got := u.Capacity(); got != c.capacity {
			t.Errorf("%s: capacity %d µops, want %d", c.name, got, c.capacity)
		}
		if u.SMT != c.smt {
			t.Errorf("%s: SMT policy %v, want %v", c.name, u.SMT, c.smt)
		}
		if p.Decode.JccAlignPenalty != c.alignPenalty {
			t.Errorf("%s: align penalty %d, want %d", c.name, p.Decode.JccAlignPenalty, c.alignPenalty)
		}
		if p.HasDSB() != c.hasDSB {
			t.Errorf("%s: HasDSB %v, want %v", c.name, p.HasDSB(), c.hasDSB)
		}
		// The rules every part shares (§II-B, §III; the Frontal
		// attack's 16-byte window): 32-byte regions of at most 3 lines,
		// at most 2 branches per line, one line streamed per hit cycle.
		if got := u.RegionSize(); got != 32 {
			t.Errorf("%s: region size %d, want 32", c.name, got)
		}
		if got := p.UopCapLine(); got != 3*c.slots {
			t.Errorf("%s: region µop cap %d, want 3 lines of %d", c.name, got, c.slots)
		}
		ct := decode.CostTable{Decode: p.Decode, Cache: u}
		if one, two := ct.StreamCycles(c.slots), ct.StreamCycles(c.slots+1); one != 1 || two != 2 {
			t.Errorf("%s: one line streams in %d cycles, one µop more in %d; want 1 and 2", c.name, one, two)
		}
	}
	if uopcache.MaxLinesPerRegion != 3 || uopcache.MaxBranchesPerLine != 2 {
		t.Errorf("placement rules: %d lines per region, %d branches per line; want 3 and 2",
			uopcache.MaxLinesPerRegion, uopcache.MaxBranchesPerLine)
	}
	if decode.PredecodeWindow != 16 {
		t.Errorf("predecode window %d bytes, want 16", decode.PredecodeWindow)
	}
}

// fillableTrace builds a minimal cacheable trace for cfg.
func fillableTrace(cfg uopcache.Config, region uint64) *uopcache.Trace {
	return uopcache.BuildTrace(cfg, region, 0, []uopcache.MacroUops{
		{Addr: region, Len: 2, Uops: []isa.Uop{{Op: isa.NOP, Slots: 1}}},
	})
}

// TestMITEOnlyZeroDSBHits is the control-profile contract: after a fill
// and a warm re-lookup the mite-only cache reports zero hits and zero
// fills, while the same traffic on Skylake hits. This is the structural
// guarantee behind the "zero DSB-divergence findings" acceptance
// criterion.
func TestMITEOnlyZeroDSBHits(t *testing.T) {
	run := func(p Profile) uopcache.Stats {
		c := uopcache.New(p.UopCache)
		const region = 0x10000
		tr := fillableTrace(p.UopCache, region)
		c.Fill(0, tr)
		c.Lookup(0, region) // warm re-run
		c.Lookup(0, region)
		return c.Stats()
	}

	mite, err := Get("mite-only")
	if err != nil {
		t.Fatal(err)
	}
	s := run(mite)
	if s.Hits != 0 || s.Fills != 0 {
		t.Fatalf("mite-only: %d hits, %d fills on warm re-run; want 0/0 (stats %+v)", s.Hits, s.Fills, s)
	}
	if s.Misses != 2 || s.Uncacheable != 1 {
		t.Errorf("mite-only: %d misses, %d uncacheable; want every lookup a miss and the fill rejected", s.Misses, s.Uncacheable)
	}

	sky, err := Get("skylake")
	if err != nil {
		t.Fatal(err)
	}
	if s := run(sky); s.Hits == 0 {
		t.Fatalf("skylake control: warm re-run did not hit (stats %+v) — the mite-only result above proves nothing", s)
	}

	// The trace builder itself must refuse mite-only regions.
	if tr := fillableTrace(mite.UopCache, 0x10000); tr.Cacheable || tr.Reason != "dsb-disabled" {
		t.Errorf("mite-only BuildTrace: cacheable=%v reason=%q, want uncacheable dsb-disabled", tr.Cacheable, tr.Reason)
	}
}

// TestMatrixEnvFilter pins the CI matrix selector: empty env selects
// all profiles, a list selects exactly those, an unknown name errors.
func TestMatrixEnvFilter(t *testing.T) {
	t.Setenv(MatrixEnv, "")
	all, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Errorf("empty %s selected %d profiles, want all %d", MatrixEnv, len(all), len(Names()))
	}

	t.Setenv(MatrixEnv, "zen, mite-only")
	sel, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "zen" || sel[1].Name != "mite-only" {
		t.Errorf("selected %v, want [zen mite-only]", sel)
	}

	t.Setenv(MatrixEnv, "skylake,notreal")
	if _, err := Matrix(); err == nil {
		t.Error("unknown profile name in matrix env accepted")
	}
}
