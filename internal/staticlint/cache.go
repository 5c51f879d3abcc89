package staticlint

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sort"
	"sync"

	"deaduops/internal/asm"
	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/uopcache"
)

// Incremental analysis cache: the audit service's load-bearing
// refactor. Two content-addressed layers share one Cache value:
//
//   - per-function taint summaries, keyed by a canonical hash of the
//     function's instruction bytes, the Spec (which fixes the taint
//     source-bit layout the summary states are expressed in), the
//     analysis Config fingerprint, the resolved indirect-target sets of
//     every CALLI/JMPI in the body (resolve.go — so a dispatch-table
//     edit that changes a site's proven target set re-keys the site's
//     function), and — transitively — the keys of every callee. SCC
//     members share one combined key over all member bodies, so the key
//     graph is the condensed call graph: editing a function changes its
//     key, which changes every transitive caller's key, which is
//     exactly the "invalidate the SCC dependents, nothing else"
//     contract. No explicit invalidation exists or is needed — stale
//     entries simply stop being addressed and age out of the bounded
//     store.
//
//   - whole-program reports, keyed by the program's full instruction
//     and label content plus the Spec and the Config fingerprint
//     including the checker selection. A corpus re-audit after one edit
//     serves every untouched program from this layer without running
//     anything; the edited program misses here, then reuses every
//     unchanged function's summary from the layer above.
//
// Both layers are safe for concurrent use: entries are immutable once
// stored (summaries are never mutated after computeSummaries builds
// them; cached reports are returned as shallow copies and their
// findings are read-only by contract), and the store is guarded by one
// mutex sized for lookups, not analysis — analyses run outside the
// lock, so two goroutines may race to compute the same entry and the
// later store wins with an identical value.

// cacheKey is a collision-resistant content address.
type cacheKey [sha256.Size]byte

// CacheStats is a point-in-time snapshot of cache effectiveness, the
// numbers /v1/stats serves and the incremental-re-audit tests assert
// on. FuncMisses counts functions whose summaries were (re)computed —
// after an edit this is precisely the changed functions plus their SCC
// dependents; FuncHits counts summaries served without re-analysis.
type CacheStats struct {
	FuncHits      uint64 `json:"func_hits"`
	FuncMisses    uint64 `json:"func_misses"`
	ReportHits    uint64 `json:"report_hits"`
	ReportMisses  uint64 `json:"report_misses"`
	FuncEntries   int    `json:"func_entries"`
	ReportEntries int    `json:"report_entries"`
}

// Default capacity bounds: sized so a 1000-program corpus re-audit is
// fully resident with headroom, while a long-lived server cannot grow
// without bound (FIFO eviction — content keys make recomputation after
// an eviction correct, just slower).
const (
	defaultMaxFuncEntries   = 1 << 16
	defaultMaxReportEntries = 1 << 12
)

// Cache is the shared incremental analysis store. The zero value is
// not usable; call NewCache. A nil *Cache is a valid "caching off"
// receiver everywhere one is accepted.
type Cache struct {
	mu      sync.Mutex
	sums    map[cacheKey]*summary
	sumQ    []cacheKey
	reports map[cacheKey]*Report
	repQ    []cacheKey

	maxSums, maxReports int
	stats               CacheStats
}

// NewCache returns an empty cache with the default capacity bounds.
func NewCache() *Cache {
	return NewCacheSized(defaultMaxFuncEntries, defaultMaxReportEntries)
}

// NewCacheSized returns an empty cache bounded to at most maxFuncs
// function summaries and maxReports program reports (minimum 1 each).
func NewCacheSized(maxFuncs, maxReports int) *Cache {
	if maxFuncs < 1 {
		maxFuncs = 1
	}
	if maxReports < 1 {
		maxReports = 1
	}
	return &Cache{
		sums:       make(map[cacheKey]*summary),
		reports:    make(map[cacheKey]*Report),
		maxSums:    maxFuncs,
		maxReports: maxReports,
	}
}

// Stats returns a snapshot of the hit/miss counters and entry counts.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.FuncEntries = len(c.sums)
	s.ReportEntries = len(c.reports)
	return s
}

// getSummaries looks up one SCC's member summaries, all-or-nothing:
// a partially evicted component recomputes as a unit, matching how it
// is stored.
func (c *Cache) getSummaries(keys []cacheKey) ([]*summary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*summary, len(keys))
	for i, k := range keys {
		s, ok := c.sums[k]
		if !ok {
			c.stats.FuncMisses += uint64(len(keys))
			return nil, false
		}
		out[i] = s
	}
	c.stats.FuncHits += uint64(len(keys))
	return out, true
}

// putSummaries stores one SCC's member summaries under their keys.
func (c *Cache) putSummaries(keys []cacheKey, sums []*summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, k := range keys {
		if _, ok := c.sums[k]; !ok {
			c.sumQ = append(c.sumQ, k)
		}
		c.sums[k] = sums[i]
	}
	for len(c.sums) > c.maxSums && len(c.sumQ) > 0 {
		old := c.sumQ[0]
		c.sumQ = c.sumQ[1:]
		delete(c.sums, old)
	}
}

func (c *Cache) getReport(k cacheKey) (*Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.reports[k]
	if ok {
		c.stats.ReportHits++
	} else {
		c.stats.ReportMisses++
	}
	return r, ok
}

func (c *Cache) putReport(k cacheKey, r *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.reports[k]; !ok {
		c.repQ = append(c.repQ, k)
	}
	c.reports[k] = r
	for len(c.reports) > c.maxReports && len(c.repQ) > 0 {
		old := c.repQ[0]
		c.repQ = c.repQ[1:]
		delete(c.reports, old)
	}
}

// hasher accumulates canonical key material. Every variable-length
// field is length-prefixed and every composite is domain-tagged, so no
// two distinct inputs serialize to the same byte stream.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher(domain string) *hasher {
	w := &hasher{h: sha256.New()}
	w.str(domain)
	return w
}

func (w *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *hasher) i64(v int64) { w.u64(uint64(v)) }

func (w *hasher) boolean(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *hasher) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *hasher) key(k cacheKey) { w.h.Write(k[:]) }

func (w *hasher) sum() cacheKey {
	var k cacheKey
	w.h.Sum(k[:0])
	return k
}

// hashInst writes one instruction's full canonical content: operation,
// operands, immediates, prefix/length encoding facts, and the address —
// everything the decoder, the placement rules, and the dataflow engine
// can observe.
func hashInst(w *hasher, in *isa.Inst) {
	w.u64(uint64(in.Op))
	w.u64(uint64(in.Dst))
	w.u64(uint64(in.Src))
	w.i64(in.Imm)
	w.u64(uint64(in.Cond))
	w.boolean(in.HasImm)
	w.boolean(in.Imm64)
	w.boolean(in.LCP)
	w.u64(in.Addr)
	w.u64(uint64(in.Len))
	w.u64(uint64(in.UopCount))
}

// configFingerprint hashes every Config field that can influence an
// analysis result. The front-end constants every part shares hash in
// the positions their former Config fields held, so keys issued before
// they became constants stay valid; the two deleted decode fields
// nothing read (complex-decoder width, predecode width) hash Skylake's
// former values, so only keys issued under the Zen profiles moved. The
// checker selection participates only in report keys (withCheckers):
// summaries are checker-independent, so a server answering
// differently-scoped requests still shares one summary pool.
func configFingerprint(cfg Config, withCheckers bool) cacheKey {
	w := newHasher("deaduops-config-v1")
	u := cfg.UopCache
	w.u64(uint64(u.Sets))
	w.u64(uint64(u.Ways))
	w.u64(uint64(u.SlotsPerLine))
	w.u64(uopcache.MaxLinesPerRegion)
	w.u64(uopcache.IndexLoBit)
	w.u64(uopcache.MaxBranchesPerLine)
	w.u64(uint64(u.HotnessMax))
	w.u64(uint64(u.SMT))
	w.u64(uint64(u.SwitchPenalty))
	w.u64(uint64(u.SlotsPerLine)) // the DSB stream width
	w.boolean(u.Disabled)
	d := cfg.Decode
	w.u64(decode.SimpleDecoders)
	w.u64(4) // former ComplexUopMax
	w.u64(uint64(d.DecodeWidth))
	w.u64(decode.MSROMWidth)
	w.u64(decode.LCPPenalty)
	w.u64(decode.PredecodeWindow)
	w.u64(6)        // former PredecodeWidth
	w.boolean(true) // macro-fusion
	w.u64(uint64(d.JccAlignPenalty))
	w.u64(uint64(cfg.PathBudget))
	w.u64(DefaultProbeIters)
	w.u64(DefaultPrimeTraversals)
	w.u64(DefaultVictimRuns)
	if withCheckers {
		if cfg.Checkers == nil {
			w.str("checkers:all")
		} else {
			w.str("checkers:subset")
			for _, c := range cfg.Checkers {
				w.str(c.Name())
			}
		}
	}
	return w.sum()
}

// specFingerprint hashes the secret declaration. Declaration order
// matters — it fixes the source-bit layout summary states are encoded
// in — so the lists hash as given, not sorted; only the EntryConsts
// map (unordered by nature) is canonicalized.
func specFingerprint(spec Spec) cacheKey {
	w := newHasher("deaduops-spec-v1")
	w.u64(uint64(len(spec.SecretRegs)))
	for _, r := range spec.SecretRegs {
		w.u64(uint64(r))
	}
	w.u64(uint64(len(spec.SecretRanges)))
	for _, mr := range spec.SecretRanges {
		w.u64(mr.Start)
		w.u64(mr.End)
	}
	regs := make([]int, 0, len(spec.EntryConsts))
	for r := range spec.EntryConsts {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	w.u64(uint64(len(regs)))
	for _, r := range regs {
		w.u64(uint64(r))
		w.i64(spec.EntryConsts[isa.Reg(r)])
	}
	return w.sum()
}

// reportKey addresses a whole-program lint result: full instruction
// content, label bindings (labels reach findings through LabelAt),
// entry point, secrets, and the complete config including checker
// selection.
func reportKey(prog *asm.Program, spec Spec, cfg Config) cacheKey {
	w := newHasher("deaduops-report-v1")
	w.u64(prog.Entry)
	w.u64(uint64(len(prog.Insts)))
	for _, in := range prog.Insts {
		hashInst(w, in)
	}
	for _, l := range prog.Labels() {
		w.str(l.Name)
		w.u64(l.Addr)
	}
	w.key(specFingerprint(spec))
	w.key(configFingerprint(cfg, true))
	return w.sum()
}

// funcBodyHash canonicalizes one function's own content: every member
// block's instructions plus, per indirect transfer, the resolved target
// set the value-set analysis proved (or its absence — the havoc
// contract). Including the resolved sets is what makes a dispatch-table
// edit reach this function's key even when its instruction bytes are
// untouched: resolution re-runs on the edited program, the site's
// proven set changes, and the key changes with it.
func (a *Analysis) funcBodyHash(f *Func) cacheKey {
	w := newHasher("deaduops-func-v1")
	w.u64(f.Entry)
	w.boolean(f.hasIndirectJump)
	w.u64(uint64(len(f.Blocks)))
	for _, bi := range f.Blocks {
		blk := a.CFG.Blocks[bi]
		w.u64(uint64(len(blk.Insts)))
		for _, in := range blk.Insts {
			hashInst(w, in)
		}
		switch last := blk.Last(); last.Op {
		case isa.CALLI, isa.JMPI:
			ts := a.resolved[last.Addr]
			if len(ts) == 0 {
				w.str("indirect:havoc")
				continue
			}
			sorted := append([]uint64(nil), ts...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			w.str("indirect:resolved")
			w.u64(uint64(len(sorted)))
			for _, t := range sorted {
				w.u64(t)
			}
		}
	}
	return w.sum()
}

// sccKeys derives the member summary keys of one call-graph SCC.
// funcKey carries the already-computed keys of every earlier (callee)
// component — callSCCs emits components in reverse topological order,
// so by the time a component is keyed all its callees outside the
// component are. Call targets inside the component hash as positional
// self-references (their content is already part of the combined
// hash); targets outside the function partition hash as the havoc
// marker they summarize to.
func (a *Analysis) sccKeys(scc []int, specFP, cfgFP cacheKey, funcKey []cacheKey) []cacheKey {
	pos := make(map[int]int, len(scc))
	for i, fi := range scc {
		pos[fi] = i
	}
	w := newHasher("deaduops-scc-v1")
	w.key(specFP)
	w.key(cfgFP)
	w.u64(uint64(len(scc)))
	for _, fi := range scc {
		f := a.funcs[fi]
		w.key(a.funcBodyHash(f))
		for _, cs := range f.Calls {
			tgts := cs.callees()
			if tgts == nil {
				w.str("call:havoc")
				continue
			}
			w.str("call:known")
			w.u64(uint64(len(tgts)))
			for _, t := range tgts {
				j, ok := a.funcIndex[t]
				if !ok {
					w.str("extern")
					w.u64(t)
					continue
				}
				if p, in := pos[j]; in {
					w.str("self")
					w.u64(uint64(p))
				} else {
					w.key(funcKey[j])
				}
			}
		}
	}
	combined := w.sum()
	keys := make([]cacheKey, len(scc))
	for i, fi := range scc {
		m := newHasher("deaduops-member-v1")
		m.key(combined)
		m.u64(uint64(i))
		keys[i] = m.sum()
		funcKey[fi] = keys[i]
	}
	return keys
}

// LintCached is Lint backed by an incremental cache: a report-level hit
// returns the stored result without any analysis; a miss analyzes with
// per-function summary reuse and stores the new report. The second
// result reports whether the report layer hit. A nil cache degrades to
// plain Lint. Cached reports are shared structure — callers must treat
// findings as read-only (Filter and JSON encoding both do).
func LintCached(prog *asm.Program, spec Spec, cfg Config, c *Cache) (*Report, bool) {
	if c == nil {
		return Lint(prog, spec, cfg), false
	}
	key := reportKey(prog, spec, cfg)
	if r, ok := c.getReport(key); ok {
		cp := *r
		return &cp, true
	}
	a := analyzeWith(prog, spec, cfg, c)
	r := lintAnalysis(a, cfg)
	c.putReport(key, r)
	cp := *r
	return &cp, false
}
