package staticlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/ref"
	"deaduops/internal/victim"
)

// reportJSON renders a report in its wire form — the byte-equality
// oracle every cache test compares against.
func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fixtureSpec(l victim.Layout) Spec {
	return Spec{SecretRanges: []MemRange{
		{Start: l.SecretBase, End: l.SecretBase + uint64(l.ArrayLen)},
		{Start: l.Secret2Addr, End: l.Secret2Addr + 8},
	}}
}

// TestLintCachedNilCache: a nil cache is "caching off", not a crash.
func TestLintCachedNilCache(t *testing.T) {
	lay := victim.DefaultLayout()
	fx := victim.Fixtures(lay)[0]
	r, hit := LintCached(fx.Prog, fixtureSpec(lay), DefaultConfig(), nil)
	if hit {
		t.Fatal("nil cache reported a hit")
	}
	want := reportJSON(t, Lint(fx.Prog, fixtureSpec(lay), DefaultConfig()))
	if got := reportJSON(t, r); !bytes.Equal(got, want) {
		t.Fatalf("nil-cache report diverges from Lint:\n%s\nvs\n%s", got, want)
	}
}

// TestLintCachedByteIdenticalAllProfiles pins the cache's core output
// contract: for every victim fixture under every registered front-end
// profile, the cold (miss) report and the warm (report-layer hit)
// report are byte-identical to an uncached Lint.
func TestLintCachedByteIdenticalAllProfiles(t *testing.T) {
	lay := victim.DefaultLayout()
	spec := fixtureSpec(lay)
	for _, name := range profile.Names() {
		prof, err := profile.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ConfigForProfile(prof)
		c := NewCache()
		for _, fx := range victim.Fixtures(lay) {
			want := reportJSON(t, Lint(fx.Prog, spec, cfg))
			cold, hit := LintCached(fx.Prog, spec, cfg, c)
			if hit {
				t.Fatalf("%s/%s: first lookup hit an empty cache", name, fx.Name)
			}
			if got := reportJSON(t, cold); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: cold cached report != Lint\n%s\nvs\n%s", name, fx.Name, got, want)
			}
			warm, hit := LintCached(fx.Prog, spec, cfg, c)
			if !hit {
				t.Fatalf("%s/%s: identical re-audit missed the report layer", name, fx.Name)
			}
			if got := reportJSON(t, warm); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: warm cached report != Lint\n%s\nvs\n%s", name, fx.Name, got, want)
			}
		}
	}
}

// chainProg builds the invalidation-scope program: a call chain
// entry -> fa -> fb -> fc plus an independent sibling fd. Editing fc
// (its MOVI immediate) must re-key fc and every transitive caller —
// fb, fa, entry — while fd's summary survives untouched.
func chainProg(fcImm int64) *asm.Program {
	b := asm.New(0x1000)
	b.Call("fa")
	b.Call("fd")
	b.Halt()
	b.Label("fa").Call("fb").Ret()
	b.Label("fb").Call("fc").Ret()
	b.Label("fc").Movi(isa.R3, fcImm).Ret()
	b.Label("fd").Movi(isa.R4, 2).Ret()
	return b.MustBuild()
}

func TestCacheInvalidationSCCDependents(t *testing.T) {
	c := NewCache()
	cfg := DefaultConfig()

	// Cold: five singleton functions, five summary misses.
	analyzeWith(chainProg(1), Spec{}, cfg, c)
	s := c.Stats()
	if s.FuncMisses != 5 || s.FuncHits != 0 {
		t.Fatalf("cold stats %+v, want 5 misses / 0 hits", s)
	}

	// Unchanged re-analysis: every summary served from cache.
	analyzeWith(chainProg(1), Spec{}, cfg, c)
	s2 := c.Stats()
	if d := s2.FuncHits - s.FuncHits; d != 5 {
		t.Fatalf("unchanged re-analysis hit %d summaries, want 5", d)
	}
	if s2.FuncMisses != s.FuncMisses {
		t.Fatalf("unchanged re-analysis recomputed %d summaries", s2.FuncMisses-s.FuncMisses)
	}

	// Edit fc: exactly fc and its SCC dependents (fb, fa, entry)
	// recompute; the independent fd is served from cache.
	analyzeWith(chainProg(7), Spec{}, cfg, c)
	s3 := c.Stats()
	if d := s3.FuncMisses - s2.FuncMisses; d != 4 {
		t.Errorf("edited callee invalidated %d summaries, want 4 (fc, fb, fa, entry)", d)
	}
	if d := s3.FuncHits - s2.FuncHits; d != 1 {
		t.Errorf("edited program reused %d summaries, want 1 (fd)", d)
	}
}

// dispatchProg builds the resolved-set participation program: two
// routines F and H each load a handler address and jump into a shared
// tail T holding the one CALLI. T's blocks are members of both F and
// H, so the dispatch site's resolved target set is part of both
// bodies' key material.
func dispatchProg(hTarget int64) *asm.Program {
	b := asm.New(0x1000)
	b.Call("F")
	b.Call("H")
	b.Halt()
	b.Label("F").Movi(isa.R6, 0x2000).Jmp("T")
	b.Label("H").Movi(isa.R6, hTarget).Jmp("T")
	b.Label("T").Calli(isa.R6).Ret()
	b.Org(0x2000)
	b.Label("ha").Movi(isa.R2, 1).Ret()
	b.Org(0x2010)
	b.Label("hb").Movi(isa.R2, 2).Ret()
	b.Org(0x2020)
	b.Label("hc").Movi(isa.R2, 3).Ret()
	return b.MustBuild()
}

// TestCacheResolvedSetInvalidatesCaller pins the dispatch-table
// contract: editing H's handler load changes the value set the VSA
// proves at T's CALLI, and F — whose own instruction bytes are
// untouched — must re-key because the resolved set is part of its
// body hash. The handlers themselves stay cached.
func TestCacheResolvedSetInvalidatesCaller(t *testing.T) {
	v1 := dispatchProg(0x2010)
	v2 := dispatchProg(0x2020)

	// The edit is exactly one immediate: every other instruction,
	// including all of F's body and the shared tail, is byte-identical.
	if len(v1.Insts) != len(v2.Insts) {
		t.Fatalf("program shapes diverge: %d vs %d insts", len(v1.Insts), len(v2.Insts))
	}
	diff := 0
	for i := range v1.Insts {
		if *v1.Insts[i] != *v2.Insts[i] {
			diff++
			if v1.Insts[i].Op != isa.MOVI {
				t.Fatalf("unexpected edit at %#x: %v vs %v", v1.Insts[i].Addr, v1.Insts[i], v2.Insts[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("edit touched %d instructions, want exactly H's MOVI", diff)
	}

	c := NewCache()
	cfg := DefaultConfig()
	a1 := analyzeWith(v1, Spec{}, cfg, c)
	if got := a1.resolved[a1.CFG.BlockOf(v1.MustLabel("T")).Index]; len(got) != 2 {
		t.Fatalf("v1 dispatch site resolved to %v, want {ha, hb}", got)
	}
	s1 := c.Stats()
	if s1.FuncMisses != 6 || s1.FuncHits != 0 {
		t.Fatalf("cold stats %+v, want 6 misses (entry, F, H, ha, hb, hc)", s1)
	}

	a2 := analyzeWith(v2, Spec{}, cfg, c)
	if got := a2.resolved[a2.CFG.BlockOf(v2.MustLabel("T")).Index]; len(got) != 2 {
		t.Fatalf("v2 dispatch site resolved to %v, want {ha, hc}", got)
	}
	s2 := c.Stats()
	// Recomputed: H (edited), F (unchanged bytes, changed resolved
	// set), entry (transitive caller). Reused: the three handlers.
	if d := s2.FuncMisses - s1.FuncMisses; d != 3 {
		t.Errorf("dispatch edit invalidated %d summaries, want 3 (F, H, entry)", d)
	}
	if d := s2.FuncHits - s1.FuncHits; d != 3 {
		t.Errorf("dispatch edit reused %d summaries, want 3 (ha, hb, hc)", d)
	}
}

// TestCacheCorpusWarmReaudit drives the service's steady-state
// workload: a corpus of generated programs audited, re-audited
// unchanged, then re-audited after one program is edited. The warm
// pass must be pure report-layer hits; the edit must miss exactly one
// report and reuse every summary the edit does not reach.
func TestCacheCorpusWarmReaudit(t *testing.T) {
	const corpus = 1000
	genCfg := ref.DefaultGenConfig()
	progs := make([]*asm.Program, corpus)
	for i := range progs {
		p, err := ref.Generate(uint64(i+1), genCfg)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	cfg := DefaultConfig()
	c := NewCache()

	cold := make([][]byte, corpus)
	for i, p := range progs {
		r, hit := LintCached(p, Spec{}, cfg, c)
		if hit {
			t.Fatalf("program %d hit an empty cache", i)
		}
		cold[i] = reportJSON(t, r)
	}
	s1 := c.Stats()
	if s1.ReportMisses != corpus || s1.ReportHits != 0 {
		t.Fatalf("cold stats %+v, want %d report misses", s1, corpus)
	}

	// Warm, unchanged: every program served from the report layer,
	// byte-identical, with zero summary traffic.
	for i, p := range progs {
		r, hit := LintCached(p, Spec{}, cfg, c)
		if !hit {
			t.Fatalf("unchanged program %d missed the report layer", i)
		}
		if got := reportJSON(t, r); !bytes.Equal(got, cold[i]) {
			t.Fatalf("program %d: warm report diverges from cold", i)
		}
	}
	s2 := c.Stats()
	if d := s2.ReportHits - s1.ReportHits; d != corpus {
		t.Fatalf("warm pass hit %d reports, want %d", d, corpus)
	}
	if s2.FuncHits != s1.FuncHits || s2.FuncMisses != s1.FuncMisses {
		t.Fatalf("warm pass touched the summary layer: %+v vs %+v", s2, s1)
	}

	// Edit one program in place (a MOVI immediate) and measure how many
	// summaries the edited program needs at all, on a throwaway cache.
	edited := progs[corpus/2]
	var mutated *isa.Inst
	for _, in := range edited.Insts {
		if in.Op == isa.MOVI {
			mutated = in
			break
		}
	}
	if mutated == nil {
		t.Fatal("edited program has no MOVI to mutate")
	}
	mutated.Imm ^= 0x55
	fresh := NewCache()
	LintCached(edited, Spec{}, cfg, fresh)
	total := fresh.Stats().FuncMisses
	if total < 2 {
		t.Fatalf("edited program has %d functions; need >= 2 for a reuse assertion", total)
	}

	// Re-audit the corpus: 999 report hits, one miss, and the miss
	// reuses at least one unedited function's summary.
	for _, p := range progs {
		LintCached(p, Spec{}, cfg, c)
	}
	s3 := c.Stats()
	if d := s3.ReportHits - s2.ReportHits; d != corpus-1 {
		t.Errorf("post-edit pass hit %d reports, want %d", d, corpus-1)
	}
	if d := s3.ReportMisses - s2.ReportMisses; d != 1 {
		t.Errorf("post-edit pass missed %d reports, want 1", d)
	}
	missed := s3.FuncMisses - s2.FuncMisses
	reused := s3.FuncHits - s2.FuncHits
	if missed+reused != total {
		t.Errorf("edited program looked up %d summaries, want %d", missed+reused, total)
	}
	if missed < 1 || missed >= total {
		t.Errorf("edit recomputed %d of %d summaries, want a strict non-empty subset", missed, total)
	}
	if reused < 1 {
		t.Errorf("edit reused %d summaries, want >= 1", reused)
	}
}

// TestLintCachedConcurrent hammers one shared cache from many
// goroutines across fixtures and profiles (run under -race in CI) and
// checks every concurrent result against the sequential baseline.
func TestLintCachedConcurrent(t *testing.T) {
	lay := victim.DefaultLayout()
	spec := fixtureSpec(lay)
	fixtures := victim.Fixtures(lay)
	profs := []profile.Profile{profile.Default()}
	for _, name := range profile.Names() {
		p, err := profile.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != profile.Default().Name {
			profs = append(profs, p)
		}
	}
	want := map[string][]byte{}
	for _, prof := range profs {
		cfg := ConfigForProfile(prof)
		for _, fx := range fixtures {
			want[prof.Name+"/"+fx.Name] = reportJSON(t, Lint(fx.Prog, spec, cfg))
		}
	}

	// Cached summaries are shared by every analysis that reuses them, so
	// none may write one. The cache is filled with each fixture's
	// summaries before any analysis has applied them; two audits of each
	// fixture, under all checkers and under one, miss the report layer
	// and are served every summary from the cache. Every cached out must
	// stay as it was, through those audits and the concurrent rounds
	// below.
	c := NewCache()
	cfg := ConfigForProfile(profs[0])
	for _, fx := range fixtures {
		a := Analyze(fx.Prog, spec, cfg)
		a.cache = c
		a.computeSummaries()
	}
	before := summarySnapshot(c)
	scoped := cfg
	scoped.Checkers = []Checker{SecretBranchChecker{}}
	misses := c.Stats().FuncMisses
	for _, audit := range []Config{cfg, scoped} {
		for _, fx := range fixtures {
			if _, hit := LintCached(fx.Prog, spec, audit, c); hit {
				t.Fatalf("%s: audit under %d checkers hit the report layer", fx.Name, len(audit.Checkers))
			}
		}
		checkSummariesUnchanged(t, c, before)
	}
	if s := c.Stats(); s.FuncMisses != misses || s.FuncHits == 0 {
		t.Fatalf("the audits recomputed summaries instead of reusing them: %+v", s)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, prof := range profs {
					cfg := ConfigForProfile(prof)
					for _, fx := range fixtures {
						// Jobs filter the shared report and may grow the
						// result; the capacity clip makes that append copy
						// rather than race on the cached backing array.
						r, _ := LintCached(fx.Prog, spec, cfg, c)
						r = r.Filter(SevInfo)
						if grown := append(r.Findings, Finding{Checker: "appended"}); len(grown) != len(r.Findings)+1 {
							errs <- fmt.Errorf("goroutine %d: append lost a finding", g)
							return
						}
						b, err := json.Marshal(r)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(b, want[prof.Name+"/"+fx.Name]) {
							errs <- fmt.Errorf("goroutine %d: %s/%s diverged from sequential baseline", g, prof.Name, fx.Name)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := c.Stats()
	if s.FuncHits == 0 || s.ReportHits == 0 {
		t.Errorf("concurrent run produced no cache hits: %+v", s)
	}
	checkSummariesUnchanged(t, c, before)
}

// TestFilterSharesUnfilteredFindings pins Filter's sharing contract on
// a report-cache hit: a filter that keeps every finding returns the
// cached backing array clipped to its length, so a job that appends to
// its result copies and never writes the cached report; a filter that
// drops a finding returns a fresh slice; and no findings stay nil on
// the wire.
func TestFilterSharesUnfilteredFindings(t *testing.T) {
	lay := victim.DefaultLayout()
	spec := fixtureSpec(lay)
	cfg := DefaultConfig()
	var fx *victim.Fixture
	for _, f := range victim.Fixtures(lay) {
		r := Lint(f.Prog, spec, cfg)
		if top := r.MaxSeverity(); slices.ContainsFunc(r.Findings, func(f Finding) bool { return f.Severity < top }) {
			fx = &f
			break
		}
	}
	if fx == nil {
		t.Fatal("no fixture has findings of two severities")
	}
	c := NewCache()
	LintCached(fx.Prog, spec, cfg, c)
	r, hit := LintCached(fx.Prog, spec, cfg, c)
	if !hit {
		t.Fatalf("%s: second audit missed the report cache", fx.Name)
	}
	cached := c.reports[reportKey(fx.Prog, spec, cfg)]
	want := reportJSON(t, cached)
	n := len(cached.Findings)

	all := r.Filter(SevInfo)
	if len(all.Findings) != n || cap(all.Findings) != n || &all.Findings[0] != &cached.Findings[0] {
		t.Fatalf("Filter(info): len %d cap %d over %d cached findings, shared %v; want the cached array clipped to its length",
			len(all.Findings), cap(all.Findings), n, &all.Findings[0] == &cached.Findings[0])
	}
	grown := append(all.Findings, Finding{Checker: "appended"})
	grown[0].Message = "rewritten by a job"
	if got := reportJSON(t, cached); !bytes.Equal(got, want) {
		t.Fatalf("appending to the filtered findings changed the cached report:\n got %s\nwant %s", got, want)
	}

	dropped := r.Filter(r.MaxSeverity())
	if len(dropped.Findings) == 0 || len(dropped.Findings) >= n || &dropped.Findings[0] == &cached.Findings[0] {
		t.Fatalf("Filter(%v) kept %d of %d findings in the cached array; want a fresh, shorter slice", r.MaxSeverity(), len(dropped.Findings), n)
	}

	for _, empty := range []*Report{{}, {Findings: []Finding{}}, r.Filter(SevError + 1)} {
		if b := reportJSON(t, empty.Filter(SevInfo)); !bytes.Contains(b, []byte(`"findings":null`)) {
			t.Errorf("a report with no findings encodes as %s, want \"findings\":null", b)
		}
	}
}

// TestCachedSummaryNeverWritten: a summary cached before any caller
// applied it stays deep-equal through audits that apply it. The callee
// f sits at the same address in two programs; in the first nothing
// calls it, so its summary is stored unapplied, and the second
// program's audits are served that summary and apply it at their call.
func TestCachedSummaryNeverWritten(t *testing.T) {
	prog := func(call bool) *asm.Program {
		b := asm.New(0x1000)
		b.Movi(isa.R15, 0x8000)
		if call {
			b.Store(isa.R15, -16, isa.R1).Call("f").Load(isa.R3, isa.R15, -16)
		}
		b.Halt()
		b.Org(0x1100)
		b.Label("f").Store(isa.R15, 8, isa.R2).Load(isa.R4, isa.R15, 16).Xor(isa.R5, isa.R5).Ret()
		return b.MustBuild()
	}
	spec := Spec{SecretRegs: []isa.Reg{isa.R1}}
	cfg := DefaultConfig()
	c := NewCache()
	LintCached(prog(false), spec, cfg, c)
	before := summarySnapshot(c)
	hits := c.Stats().FuncHits
	scoped := cfg
	scoped.Checkers = []Checker{SecretBranchChecker{}}
	for _, audit := range []Config{cfg, scoped} {
		LintCached(prog(true), spec, audit, c)
		checkSummariesUnchanged(t, c, before)
	}
	if c.Stats().FuncHits == hits {
		t.Fatal("the calling program reused no cached summary")
	}
}

// summarySnapshot deep-copies every summary in c.
func summarySnapshot(c *Cache) map[cacheKey]summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[cacheKey]summary, len(c.sums))
	for k, s := range c.sums {
		cp := *s
		if s.out != nil {
			cp.out = s.out.clone()
		}
		out[k] = cp
	}
	return out
}

// checkSummariesUnchanged fails unless every summary in before is still
// cached and deep-equal to its snapshot.
func checkSummariesUnchanged(t *testing.T, c *Cache, before map[cacheKey]summary) {
	t.Helper()
	now := summarySnapshot(c)
	for k, s := range before {
		if got, ok := now[k]; !ok || !reflect.DeepEqual(got, s) {
			t.Fatalf("cached summary %x changed after reuse:\nwas %+v\nnow %+v", k[:4], s.out, got.out)
		}
	}
}

// TestCacheEviction pins the FIFO bound: the store never exceeds its
// capacity, and an evicted report recomputes correctly (a miss, not an
// error or a stale hit).
func TestCacheEviction(t *testing.T) {
	c := NewCacheSized(4, 2)
	cfg := DefaultConfig()
	var progs []*asm.Program
	for i := 0; i < 4; i++ {
		progs = append(progs, chainProg(int64(100+i)))
	}
	for _, p := range progs {
		LintCached(p, Spec{}, cfg, c)
	}
	s := c.Stats()
	if s.ReportEntries > 2 || s.FuncEntries > 4 {
		t.Fatalf("bounds exceeded: %+v", s)
	}
	// The first program's report was evicted; re-auditing it must miss
	// and still produce the right result.
	want := reportJSON(t, Lint(progs[0], Spec{}, cfg))
	r, hit := LintCached(progs[0], Spec{}, cfg, c)
	if hit {
		t.Fatal("evicted report reported a hit")
	}
	if got := reportJSON(t, r); !bytes.Equal(got, want) {
		t.Fatalf("post-eviction report diverges:\n%s\nvs\n%s", got, want)
	}
}
