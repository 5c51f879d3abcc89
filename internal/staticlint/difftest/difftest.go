// Package difftest is the differential validation harness for the
// static leakage quantifier: it generates random secret-branching
// victim programs with internal/codegen, prices both secret directions
// with the static predictor (internal/staticlint), measures the same
// probe-cycle deltas on the cycle-level simulator (internal/cpu), and
// asserts that prediction and measurement agree in sign and within a
// stated tolerance. Every victim is a miniature of the paper's §VI-A
// pattern: a branch on a loaded secret byte whose two successor paths
// are micro-op cache chains with different set/way footprints and
// different legacy-decode amplification (plain NOPs, LCP NOPs, or an
// MSROM macro-op per region).
package difftest

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/staticlint"
	"deaduops/internal/uopcache"
)

const (
	// SecretAddr holds the one secret byte a generated victim branches
	// on; 0 steers the fall-through path, 1 the taken path.
	SecretAddr = 0x9000
	// spillAddr is the slot ShapeCalleeSpill victims spill the secret
	// byte through before the call.
	spillAddr = 0x9100

	// entryBase is the (WayStride-aligned) address of the entry region:
	// it loads the secret, compares it, pads, and ends with the
	// secret-dependent JNE exactly at the 32-byte region boundary — so
	// both directions share an identical entry trace and the static
	// fetch segmentation matches the simulator's bit for bit.
	entryBase = 0x10000
	// nestedStubAddr hosts the never-taken target of ShapeNested's
	// second (nested) secret branch, clear of the fall chain's span.
	nestedStubAddr = entryBase + 0x3000
	// calleeBase is the (WayStride-aligned) entry of the callee region
	// for the multi-function shapes: the entry region ends with a CALL
	// here, and the callee's region ends with the secret branch.
	calleeBase = entryBase + 0x4000
	// takenBase hosts the taken-direction chain, clear of the
	// fall-direction chain's largest possible span.
	takenBase = entryBase + 0x8000
	// suffixBase hosts ShapeSharedSuffix's common tail chain both
	// directions rejoin before the exit.
	suffixBase = takenBase + 0x4000
	// uncFallBase/uncTakenBase host ShapeUncacheable's per-direction
	// uncacheable tail chains (single-way, so each stays within one
	// WayStride of its base).
	uncFallBase  = takenBase + 0x8000
	uncTakenBase = takenBase + 0xC000
	// helperBase hosts ShapeIndirect's callee: the entry region ends
	// with an indirect call here, and the secret branch sits in the
	// region fetch returns to. The address is WayStride-aligned and
	// clear of both chains' spans.
	helperBase = entryBase + 0x6000
	// tableAddr is the two-slot function-pointer table
	// ShapeIndirectTable victims build at runtime: slot 0 holds the hot
	// dispatch target, slot 1 the cold decoy. Both slots are written at
	// constant addresses, so the value-set analysis tracks them as
	// strongly-updated cells — the "bounded, read-only target table"
	// pattern the resolution pass exists for.
	tableAddr = 0x9200
	// idxAddr is the dispatch-index byte ShapeIndirectTable victims
	// load: never written, so it reads zero at runtime (slot 0, the hot
	// target) while staying statically unknown — the masked-index
	// pattern resolution must bound without knowing the value.
	idxAddr = 0x9300
	// dispatchBase hosts ShapeIndirectTable's hot dispatch target: its
	// first region ends with the secret branch, whose fall-through
	// streams into the fall chain's first region. dispatchDecoy hosts
	// the cold slot's never-executed target, placed past the largest
	// possible fall-chain span (64-set profiles stride 2 KiB per way)
	// so the resolved target set keeps two members without address
	// collisions.
	dispatchBase  = entryBase + 0x5000
	dispatchDecoy = entryBase + 0x7000
	// mutualABase and mutualBBase host ShapeIndirectMutual's two
	// functions; mutualARec and mutualBRec host their never-executed
	// recursion stubs, each of which calls the *other* function through
	// a register — the resolved indirect edges close a static cycle the
	// summary fixpoint must converge over. The fall chain shares
	// mutualABase, so the stubs sit past its largest possible span.
	mutualABase = entryBase + 0x5000
	mutualARec  = entryBase + 0x6400
	mutualBBase = entryBase + 0x6800
	mutualBRec  = entryBase + 0x6C00
	// exitAddr hosts the shared exit block both chains jump to.
	exitAddr = takenBase + 0x10000

	maxCycles = 200_000
	trainRuns = 3

	// spillPreambleRegions is the number of 14-µop NOP regions the
	// ShapeCalleeSpill callee executes before reloading the spill slot;
	// see the shape's construction for why the reload must trail the
	// store by several retire groups.
	spillPreambleRegions = 3
)

// Shape selects the victim's control-flow skeleton; the generator
// draws it first, so every flavour keeps its own deterministic stream.
type Shape int

// Victim shapes.
const (
	// ShapeLeaf is the original single-function victim: entry region →
	// secret branch → per-direction chain → exit.
	ShapeLeaf Shape = iota
	// ShapeCalleeReg moves the secret branch into a callee; the secret
	// reaches it in a register argument across the CALL.
	ShapeCalleeReg
	// ShapeCalleeSpill also branches in a callee, but the caller spills
	// the secret to memory and zeroes the register — the callee reloads
	// it, so the taint crosses the call through a resolved memory cell.
	ShapeCalleeSpill
	// ShapeNested adds a second, nested secret branch (never taken for
	// the generated secrets) on the fall path.
	ShapeNested
	// ShapeSharedSuffix makes both directions rejoin a shared suffix
	// chain before the exit, so only a prefix of the footprint diverges.
	ShapeSharedSuffix
	// ShapeUncacheable appends a tail chain of uncacheable regions
	// (more µops than MaxLinesPerRegion ways can hold) to each
	// direction: MITE-delivered on every fetch, excluded from the
	// probe-visible footprint, and delta-neutral between warm and cold
	// runs — the placement-rule edge the quantifier must price as zero.
	ShapeUncacheable

	// numRandomShapes bounds the shapes Generate draws from. The shapes
	// below are reached only through GenerateShape: widening the draw
	// would reshuffle every existing fuzz-corpus seed.
	numRandomShapes = 6

	// ShapeAlign pins the two directions' chains to divergent
	// conditional-jump alignments: one direction's regions place a
	// never-taken JCC straddling the 16-byte predecode-window boundary
	// (offset 15), the other's place it wholly inside a window. The
	// chains are otherwise µop-matched flavours, so the alignment stall
	// (decode.Config.JccAlignPenalty, MITE-only) is the asymmetry the
	// secret-dependent-jump-alignment checker must price.
	ShapeAlign Shape = 6
	// ShapeSwitch gives only the taken direction an uncacheable tail
	// chain of 2-4 regions: its warm traversal pays one DSB→MITE
	// switch bubble per tail region while the fall-through pays none —
	// the switch-point-count channel the dsb-mite-switch checker
	// detects, validated against the simulator's
	// dsb2mite_switches.count counter.
	ShapeSwitch Shape = 7
	// ShapeIndirect routes control through an indirect call (CALLI via
	// a register) before the secret branch: the branch sits in the
	// region the call returns to. The resolution pass proves the
	// singleton target (a MOVI-loaded constant), so the secret crosses
	// the call through the resolved callee's summary; when resolution
	// is unavailable (e.g. a capped fixpoint) the site degrades to the
	// interprocedural havoc fallback — the soundness edge this shape
	// originally pinned (an unsound havoc would silently drop the
	// secret and miss the branch).
	ShapeIndirect Shape = 8
	// ShapeIndirectTable dispatches through a two-slot function-pointer
	// table the program itself writes: the dispatch index is a loaded
	// byte masked to one bit, so the value-set analysis must prove the
	// complete {hot, decoy} target set to see through the call. The
	// secret branch sits in the hot target's first region — a havocked
	// site leaves that region an unreached pseudo-entry with no taint,
	// so the divergence finding exists only through resolution.
	ShapeIndirectTable Shape = 9
	// ShapeIndirectMutual routes the secret branch through a resolved
	// indirect call into a function whose never-executed recursion stub
	// indirectly calls a second function, whose own stub indirectly
	// calls the first — a mutual-recursion SCC formed purely by
	// resolved indirect edges, pinning that the summary fixpoint
	// converges over cycles the resolution pass created.
	ShapeIndirectMutual Shape = 10
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapeLeaf:
		return "leaf"
	case ShapeCalleeReg:
		return "callee-reg"
	case ShapeCalleeSpill:
		return "callee-spill"
	case ShapeNested:
		return "nested"
	case ShapeSharedSuffix:
		return "shared-suffix"
	case ShapeUncacheable:
		return "uncacheable"
	case ShapeAlign:
		return "align"
	case ShapeSwitch:
		return "switch"
	case ShapeIndirect:
		return "indirect"
	case ShapeIndirectTable:
		return "indirect-table"
	case ShapeIndirectMutual:
		return "indirect-mutual"
	default:
		return "shape?"
	}
}

// Tolerance is the harness's acceptance contract: each direction's
// predicted refill delta must lie within ±25% of the simulator's
// measured delta (and both must be positive).
const Tolerance = 0.25

// SignFloor is the cross-direction asymmetry magnitude (cycles) below
// which the probe-delta sign check does not apply: the per-direction
// contract already tolerates a few cycles of model rounding on each
// side, so when the two directions cost nearly the same, a ±1–2 cycle
// asymmetry is quantization noise and carries no sign information
// (fuzz seed 220 measured -1 against a predicted +1).
const SignFloor = 3

// Victim is one generated secret-branching program.
type Victim struct {
	Seed   uint64
	Shape  Shape
	Prog   *asm.Program
	Entry  uint64
	Branch uint64 // address of the secret-dependent JCC
	// Taken and Fall are the chain shapes of the two directions.
	Taken, Fall codegen.ChainSpec
	// Suffix is the shared tail chain (ShapeSharedSuffix only).
	Suffix *codegen.ChainSpec
	// TakenUnc and FallUnc are the per-direction uncacheable tail
	// chains (ShapeUncacheable both, ShapeSwitch TakenUnc only).
	TakenUnc, FallUnc *codegen.ChainSpec
	// Helper is the indirect shapes' callee entry, zero otherwise. The
	// single-target shapes walk straight through their resolved calls;
	// Predict stitches ShapeIndirectTable's fetch path across its
	// two-target dispatch via Helper.
	Helper uint64
}

// Spec declares the generated victims' secret byte. The spill slot is
// deliberately NOT declared: ShapeCalleeSpill's taint must reach the
// callee's branch because the engine tracks the store/reload through
// the call, not because the slot itself is secret.
func Spec() staticlint.Spec {
	return staticlint.Spec{
		SecretRanges: []staticlint.MemRange{{Start: SecretAddr, End: SecretAddr + 1}},
	}
}

// rng is splitmix64, the same deterministic generator internal/ref
// uses, so fuzz corpus seeds reproduce exactly.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pickSets draws n distinct set indices from [lo, hi]; the first one
// is fixed to first when first >= 0 (the fall chain must start in the
// region the branch falls through into).
func pickSets(r *rng, n, lo, hi, first int) []int {
	used := make(map[int]bool)
	var sets []int
	if first >= 0 {
		sets = append(sets, first)
		used[first] = true
	}
	for len(sets) < n {
		s := lo + r.intn(hi-lo+1)
		if used[s] {
			continue
		}
		used[s] = true
		sets = append(sets, s)
	}
	return sets
}

// chainShape draws a random chain for one direction. Region bodies are
// one of three amplification flavours: plain NOPs, LCP NOPs (the tiger
// trick), or NOPs plus one MSROM macro-op; all shapes respect the
// placement rules, so every region is cacheable. The way count is
// capped so one set's regions never need more lines than the set has
// ways — otherwise a trace stays partially filled forever (Fill cannot
// evict the hot resident lines of the set's other regions mid-fill)
// and the warm run would be MITE-contaminated.
func (h *Harness) chainShape(r *rng, base uint64, lo, hi, first int, label string) codegen.ChainSpec {
	s := codegen.ChainSpec{Base: base, Label: label, NumSets: h.Profile.UopCache.Sets}
	var lines int // DSB lines one region's trace occupies
	switch flavour := r.intn(3); flavour {
	case 0, 1: // plain NOPs, or LCP NOPs: predecoder stall per macro-op
		s.NopPerRegion = r.intn(14) // 0..13, ≤14 µops/region (3 lines)
		s.NopLen = nopLen(r, s.NopPerRegion, codegen.RegionSize-2)
		s.LCP = flavour == 1 && s.NopPerRegion > 0
		lines = ceilDiv(s.NopPerRegion+1, h.Profile.UopCache.SlotsPerLine)
	case 2: // MSROM macro-op: whole-line trace, sequencer-fed decode
		s.NopPerRegion = r.intn(7) // 0..6 keeps the region ≤ 3 lines
		s.NopLen = nopLen(r, s.NopPerRegion, codegen.RegionSize-2-3)
		s.MsromUops = 5 + r.intn(4)
		lines = 2 // MSROM line + jump line
		if s.NopPerRegion > 0 {
			lines++ // leading NOP line
		}
	}
	h.placeChain(r, &s, lines, lo, hi, first)
	return s
}

// placeChain draws the set and way counts of a chain whose regions
// each occupy lines DSB lines, then its sets from [lo, hi] (the first
// fixed to first when first >= 0): one to three sets, and one to three
// ways capped so a set's regions fit its ways.
func (h *Harness) placeChain(r *rng, s *codegen.ChainSpec, lines, lo, hi, first int) {
	nSets := 1 + r.intn(3)
	maxWays := h.Profile.UopCache.Ways / lines
	if maxWays > 3 {
		maxWays = 3
	}
	ways := 1 + r.intn(maxWays)
	if nSets*ways < 2 {
		// Keep at least two regions so deltas stay measurable.
		if maxWays >= 2 {
			ways = 2
		} else {
			nSets = 2
		}
	}
	s.Sets = pickSets(r, nSets, lo, hi, first)
	s.Ways = ways
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// uncPad emits n uncacheable padding regions: each one exactly 32
// bytes of NOPs totalling more µops than the profile's cacheability
// cap, so the region is MITE-delivered on every fetch. This is
// retire-distance padding that occupies no micro-op cache ways — the
// cacheable ShapeCalleeSpill-style preamble would overflow sets that
// the padded shape's chains also draw on.
func (h *Harness) uncPad(b *asm.Builder, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < h.uncLo; j++ {
			b.Nop(1)
		}
		for rem := codegen.RegionSize - h.uncLo; rem > 0; {
			k := rem
			if k > 15 {
				k = 15
			}
			b.Nop(k)
			rem -= k
		}
	}
}

// nopLen draws a NOP length so count NOPs fit in budget bytes.
func nopLen(r *rng, count, budget int) int {
	if count == 0 {
		return 1
	}
	max := budget / count
	if max > 15 {
		max = 15
	}
	return 1 + r.intn(max)
}

// uncChainShape draws an uncacheable tail chain of minSets to
// minSets+spanSets-1 sets, one way each, every region packed with more
// single-byte NOPs than MaxLinesPerRegion lines can hold — the
// placement rules reject the trace, so the region is MITE-delivered on
// every fetch and never appears in the cache footprint.
// ShapeUncacheable draws one or two sets per direction; ShapeSwitch's
// taken-direction tail draws two to four, so a warm traversal of the
// taken direction pays that many DSB→MITE switch bubbles more than the
// fall-through — the switch-point-count asymmetry under test.
func (h *Harness) uncChainShape(r *rng, base uint64, lo, hi, minSets, spanSets int, label string) codegen.ChainSpec {
	s := codegen.ChainSpec{Base: base, Label: label, NumSets: h.Profile.UopCache.Sets}
	// One µop past the profile's cacheability cap up to the 30-NOP
	// region budget (20..30 against Skylake's 18-µop limit — the
	// historical 19 + intn(11) draw).
	s.NopPerRegion = h.uncLo + r.intn(h.uncSpan)
	s.NopLen = 1
	s.Sets = pickSets(r, minSets+r.intn(spanSets), lo, hi, -1)
	s.Ways = 1
	return s
}

// alignChainShape draws one of ShapeAlign's direction chains: every
// region carries a never-taken conditional jump pinned to a chosen
// predecode-window offset. A straddling chain puts the jump at offset
// 15 (its second byte crosses the 16-byte boundary, stalling the
// predecoder JccAlignPenalty cycles per region under legacy decode);
// an aligned chain puts it at offset 8 or 12, wholly inside a window.
// NOP padding is drawn from the divisors of the pad span, and the tail
// NOP count varies region µops — so the corpus covers µop-matched and
// µop-skewed direction pairs alike.
func (h *Harness) alignChainShape(r *rng, base uint64, lo, hi, first int, label string, straddle bool) codegen.ChainSpec {
	s := codegen.ChainSpec{Base: base, Label: label, NumSets: h.Profile.UopCache.Sets}
	if straddle {
		s.JccOffset = 15
	} else {
		s.JccOffset = []int{8, 12}[r.intn(2)]
	}
	pad := s.JccOffset - 3
	var divs []int
	for d := 1; d <= pad; d++ {
		if pad%d == 0 {
			divs = append(divs, d)
		}
	}
	s.NopLen = divs[r.intn(len(divs))]
	s.NopPerRegion = pad / s.NopLen
	s.JccTailNops = r.intn(4)
	h.placeChain(r, &s, ceilDiv(s.UopsPerRegion(), h.Profile.UopCache.SlotsPerLine), lo, hi, first)
	return s
}

// suffixShape draws ShapeSharedSuffix's small common tail chain: one
// or two regions in sets 30/31 (untouched by either direction's set
// pool), one way, plain short NOPs — a tail both directions fetch, so
// only the per-direction prefix of the footprint diverges.
func (h *Harness) suffixShape(r *rng) codegen.ChainSpec {
	s := codegen.ChainSpec{Base: suffixBase, Label: "suffix", NumSets: h.Profile.UopCache.Sets}
	s.Sets = []int{30}
	if r.intn(2) == 1 {
		s.Sets = []int{30, 31}
	}
	s.Ways = 1
	s.NopPerRegion = r.intn(6)
	s.NopLen = nopLen(r, s.NopPerRegion, codegen.RegionSize-2)
	return s
}

// Generate builds the victim for seed under the harness's profile.
// Generation is total: every seed yields a valid program. The first
// draw picks the shape; each shape then consumes its own deterministic
// stream, so fuzz corpus seeds reproduce exactly.
//
// Every shape keeps the leaf invariants the quantifier relies on: the
// region holding the secret-dependent branch ends exactly at a
// 32-byte boundary (so both directions share its trace), the fall
// chain's first region is the one fetch streams into past the branch,
// and the two directions' chain set pools are disjoint.
func (h *Harness) Generate(seed uint64) (*Victim, error) {
	r := rng{x: seed}
	shape := Shape(r.intn(numRandomShapes))
	return h.generate(seed, shape, &r)
}

// GenerateShape builds a victim of an explicitly chosen shape for
// seed under the harness's profile, bypassing Generate's shape draw —
// the entry point for the shapes outside the random pool (ShapeAlign
// through ShapeIndirectMutual) and for per-shape corpora. For the
// random-pool shapes the stream differs from Generate's (no draw is
// consumed), so the two entry points yield different victims for the
// same seed.
func (h *Harness) GenerateShape(seed uint64, shape Shape) (*Victim, error) {
	if shape < 0 || shape > ShapeIndirectMutual {
		return nil, fmt.Errorf("difftest: unknown shape %d", int(shape))
	}
	r := rng{x: seed}
	return h.generate(seed, shape, &r)
}

func (h *Harness) generate(seed uint64, shape Shape, rp *rng) (*Victim, error) {
	r := *rp
	v := &Victim{Seed: seed, Shape: shape}
	b := asm.New(entryBase)
	b.Label("entry")
	var branch uint64
	switch shape {
	case ShapeLeaf, ShapeNested, ShapeSharedSuffix, ShapeUncacheable, ShapeSwitch, ShapeAlign:
		if shape == ShapeAlign {
			// One direction's chain straddles the predecode-window
			// boundary with every region's conditional jump while the
			// other's stays aligned. Which direction straddles is drawn
			// per seed, so the corpus exercises both signs of the
			// alignment delta.
			straddleTaken := r.intn(2) == 1
			v.Fall = h.alignChainShape(&r, entryBase, 2, 15, 1, "fall", !straddleTaken)
			v.Taken = h.alignChainShape(&r, takenBase, 16, 31, -1, "taken", straddleTaken)
		} else {
			// Fall chain: lives in the entry chain's low half; its first
			// region is the one the branch cascade falls through into
			// (set 1 after the entry region, set 2 when the nested region
			// follows). Taken chain: high half, disjoint set pool so the
			// footprints always diverge; the shared-suffix shape reserves
			// sets 30/31 for the common tail.
			fallLo, fallFirst := 2, 1
			if shape == ShapeNested {
				fallLo, fallFirst = 3, 2
			}
			takenHi := 31
			if shape == ShapeSharedSuffix {
				takenHi = 29
			}
			v.Fall = h.chainShape(&r, entryBase, fallLo, 15, fallFirst, "fall")
			v.Taken = h.chainShape(&r, takenBase, 16, takenHi, -1, "taken")
		}
		b.Xor(isa.R1, isa.R1)                      // 3 bytes; zeroing idiom the const-prop resolves
		b.Loadb(isa.R2, isa.R1, int64(SecretAddr)) // 4 bytes; the secret read
		b.Cmpi(isa.R2, 0)                          // 4 bytes
		b.Nop(15)                                  // pad so the branch ends the region
		b.Nop(4)
		branch = b.PC()
		b.Jcc(isa.NE, v.Taken.EntryLabel()) // 2 bytes; ends exactly at entryBase+32
		if shape == ShapeNested {
			// A second secret branch in the next region of the fall
			// path; never taken for the generated secrets (0/1 < 2), so
			// it perturbs prediction state without forking the fetch
			// stream — the linter still prices both of its successors.
			b.Cmpi(isa.R2, 2) // 4 bytes
			b.Nop(13)
			b.Nop(13)
			b.Jcc(isa.AE, "nested_out") // ends exactly at entryBase+64
		}
	case ShapeCalleeReg, ShapeCalleeSpill:
		// The entry region ends with a CALL instead of the branch; the
		// callee's last region ends with the secret branch, whose
		// fall-through streams into the fall chain's first region. The
		// spill flavour's callee opens with spillPreambleRegions of pure
		// NOPs before the reload: the backend's conservative memory
		// ordering stalls a load while any older store is unretired, and
		// that stall is paid in full by the drain-bound warm run but
		// hidden under MITE delivery in the cold run — without the
		// preamble the measured refill delta shrinks by the stall length
		// and the fetch-only predictor over-shoots. The padding lets the
		// spill store (and the CALL's return-address push) retire before
		// the reload enters the window, keeping the victim front-end
		// bound like every other shape.
		fallFirst := 1
		if shape == ShapeCalleeSpill {
			fallFirst = spillPreambleRegions + 1
		}
		v.Fall = h.chainShape(&r, calleeBase, fallFirst+1, 15, fallFirst, "fall")
		v.Taken = h.chainShape(&r, takenBase, 16, 31, -1, "taken")
		b.Xor(isa.R1, isa.R1)                      // 3 bytes
		b.Loadb(isa.R2, isa.R1, int64(SecretAddr)) // 4 bytes
		if shape == ShapeCalleeReg {
			// The secret crosses the call in R2.
			b.Nop(15)
			b.Nop(5)
		} else {
			// The secret crosses the call through memory: spill, then
			// kill the register copy so only the reload can taint.
			b.Nop(11)
			b.Store(isa.R1, spillAddr, isa.R2) // 4 bytes; [0+spillAddr] = secret
			b.Movi(isa.R2, 0)                  // 5 bytes
		}
		b.Call("callee") // 5 bytes; ends exactly at entryBase+32
		b.Org(calleeBase)
		b.Label("callee")
		if shape == ShapeCalleeReg {
			b.Cmpi(isa.R2, 0) // 4 bytes
			b.Nop(13)
			b.Nop(13)
		} else {
			for i := 0; i < spillPreambleRegions; i++ {
				for j := 0; j < 13; j++ {
					b.Nop(2)
				}
				b.Nop(6) // 13×2 + 6 = one full 32-byte region, 14 µops
			}
			b.Loadb(isa.R3, isa.R1, spillAddr) // 4 bytes; reload the spill
			b.Cmpi(isa.R3, 0)                  // 4 bytes
			b.Nop(11)
			b.Nop(11)
		}
		branch = b.PC()
		b.Jcc(isa.NE, v.Taken.EntryLabel()) // 2 bytes; ends at a region boundary
	case ShapeIndirect:
		// The entry region ends with an indirect call through a
		// register holding a MOVI constant; the secret branch sits in
		// the region the call returns to. The resolution pass pins the
		// singleton target, so the secret's flags taint crosses the
		// call through the resolved callee's summary (and degrades to
		// the havoc fallback if resolution is ever unavailable).
		v.Fall = h.chainShape(&r, entryBase, 3, 15, 2, "fall")
		v.Taken = h.chainShape(&r, takenBase, 16, 31, -1, "taken")
		b.Xor(isa.R1, isa.R1)                      // 3 bytes
		b.Loadb(isa.R2, isa.R1, int64(SecretAddr)) // 4 bytes
		b.Movi(isa.R3, int64(helperBase))          // 5 bytes; resolved target, clean taint
		b.Nop(15)
		b.Nop(2)
		b.Calli(isa.R3) // 3 bytes; ends exactly at entryBase+32
		v.Helper = helperBase
		b.Cmpi(isa.R2, 0) // 4 bytes; the secret survives the call in R2
		b.Nop(13)
		b.Nop(13)
		branch = b.PC()
		b.Jcc(isa.NE, v.Taken.EntryLabel()) // 2 bytes; ends exactly at entryBase+64
	case ShapeIndirectTable:
		// The entry builds a two-slot function-pointer table at
		// constant addresses, loads a masked index, and dispatches
		// through the table. The index load, slot arithmetic, and table
		// load all sit in the first two regions; three uncacheable NOP
		// regions then separate them from the CALLI so the serial
		// load→ALU→load latency completes under the padding's MITE
		// delivery — exposed, it would stall only the drain-bound warm
		// run and skew the measured delta against the fetch-only model.
		// Uncacheable padding also occupies no micro-op cache ways in
		// sets the dispatch zone's chains draw on. The secret branch is the
		// hot target's first region: the straight-line walk ends at the
		// two-target call, and the divergence finding exists only
		// because resolution proves the complete {hot, decoy} set and
		// joins the hot callee's summary across the site.
		v.Fall = h.chainShape(&r, dispatchBase, 5, 15, 1, "fall")
		v.Taken = h.chainShape(&r, takenBase, 16, 31, -1, "taken")
		b.Xor(isa.R1, isa.R1)                      // 3 bytes
		b.Loadb(isa.R2, isa.R1, int64(SecretAddr)) // 4 bytes
		b.Movi(isa.R4, int64(dispatchBase))        // 5 bytes
		b.Store(isa.R1, tableAddr, isa.R4)         // 4 bytes; table[0] = hot
		b.Movi(isa.R4, int64(dispatchDecoy))       // 5 bytes
		b.Store(isa.R1, tableAddr+8, isa.R4)       // 4 bytes; table[1] = decoy
		b.Loadb(isa.R5, isa.R1, idxAddr)           // 4 bytes; runtime 0, statically unknown
		b.Nop(3)                                   // ends the region at entryBase+32
		b.Andi(isa.R5, 8)                          // 4 bytes; slot offset bounded to {0, 8}
		b.Addi(isa.R5, tableAddr)                  // 4 bytes; slot address
		b.Load(isa.R6, isa.R5, 0)                  // 4 bytes; the table load
		b.Nop(13)
		b.Nop(7) // ends the region at entryBase+64
		h.uncPad(b, spillPreambleRegions)
		b.Nop(13)
		b.Nop(13)
		b.Nop(3)
		b.Calli(isa.R6) // 3 bytes; ends the dispatch region at a boundary
		v.Helper = dispatchBase
		b.Org(dispatchBase)
		b.Label("dispatch_hot")
		b.Cmpi(isa.R2, 0) // 4 bytes; the secret survives the call in R2
		b.Nop(13)
		b.Nop(13)
		branch = b.PC()
		b.Jcc(isa.NE, v.Taken.EntryLabel()) // 2 bytes; ends exactly at dispatchBase+32
	case ShapeIndirectMutual:
		// The ShapeIndirect entry, but the callee is the first of two
		// functions whose never-executed recursion stubs call each
		// other through registers: the call graph must treat the
		// resolved edges like direct ones for the summary fixpoint over
		// the A → B → A cycle to converge. The hot path never recurses
		// — the callee's first region guards on a constant-zero
		// register — and its second region ends with the secret branch.
		v.Fall = h.chainShape(&r, mutualABase, 3, 15, 2, "fall")
		v.Taken = h.chainShape(&r, takenBase, 16, 31, -1, "taken")
		b.Xor(isa.R1, isa.R1)                      // 3 bytes
		b.Loadb(isa.R2, isa.R1, int64(SecretAddr)) // 4 bytes
		b.Movi(isa.R3, int64(mutualABase))         // 5 bytes; resolved target
		b.Nop(15)
		b.Nop(2)
		b.Calli(isa.R3) // 3 bytes; ends exactly at entryBase+32
		v.Helper = mutualABase
		b.Org(mutualABase)
		b.Label("mutual_a")
		b.Cmpi(isa.R1, 1) // 4 bytes; constant-zero guard: never taken
		b.Nop(13)
		b.Nop(13)
		b.Jcc(isa.EQ, "mutual_a_rec") // 2 bytes; ends at mutualABase+32
		b.Cmpi(isa.R2, 0)             // 4 bytes; the secret branch region
		b.Nop(13)
		b.Nop(13)
		branch = b.PC()
		b.Jcc(isa.NE, v.Taken.EntryLabel()) // 2 bytes; ends exactly at mutualABase+64
	}
	exitLabel := "exit"
	if shape == ShapeSharedSuffix {
		s := h.suffixShape(&r)
		v.Suffix = &s
		exitLabel = s.EntryLabel()
	}
	fallExit, takenExit := exitLabel, exitLabel
	if shape == ShapeUncacheable {
		// Each direction's cacheable chain drains into its own
		// uncacheable tail before the shared exit.
		fu := h.uncChainShape(&r, uncFallBase, 2, 15, 1, 2, "fallunc")
		tu := h.uncChainShape(&r, uncTakenBase, 16, 31, 1, 2, "takenunc")
		v.FallUnc, v.TakenUnc = &fu, &tu
		fallExit, takenExit = fu.EntryLabel(), tu.EntryLabel()
	}
	if shape == ShapeSwitch {
		// Only the taken direction drains into an uncacheable tail: its
		// warm traversal pays one DSB→MITE switch per tail region, the
		// fall-through pays none.
		tu := h.uncChainShape(&r, uncTakenBase, 16, 31, 2, 3, "takenunc")
		v.TakenUnc = &tu
		takenExit = tu.EntryLabel()
	}
	if err := v.Fall.Emit(b, fallExit); err != nil {
		return nil, fmt.Errorf("difftest seed %d (%s): fall chain: %w", seed, shape, err)
	}
	if shape == ShapeNested {
		b.Org(nestedStubAddr)
		b.Label("nested_out")
		b.Jmp("exit")
	}
	if shape == ShapeIndirect {
		// The callee: one cacheable region of pure NOPs ending in the
		// RET that resumes fetch at the return site. Emitted between the
		// chains so builder addresses stay ascending. The NOPs are
		// single-byte on purpose: 16 of them plus the two-µop RET fill
		// the region to the 18-µop cacheability cap, so the dispatch
		// stream keeps the RET's return-address pop a full drain group
		// behind the CALLI's push and the pop never pays a
		// load-after-store ordering stall that only warm (drain-bound)
		// runs would observe.
		b.Org(helperBase)
		b.Label("helper")
		for i := 0; i < 16; i++ {
			b.Nop(1)
		}
		b.Ret()
	}
	if shape == ShapeIndirectTable {
		// The cold dispatch target: present so the resolved target set
		// keeps two members, never executed (the dispatch index byte
		// reads zero). Mirrors the ShapeIndirect helper's layout.
		b.Org(dispatchDecoy)
		b.Label("dispatch_cold")
		for i := 0; i < 16; i++ {
			b.Nop(1)
		}
		b.Ret()
	}
	if shape == ShapeIndirectMutual {
		// The never-executed recursion stubs: each function's guard
		// jumps to its stub, and each stub calls the *other* function
		// through a register — the resolved edges close the static
		// cycle mutual_a → mutual_b → mutual_a.
		b.Org(mutualARec)
		b.Label("mutual_a_rec")
		b.Movi(isa.R4, int64(mutualBBase))
		b.Calli(isa.R4)
		b.Ret()
		b.Org(mutualBBase)
		b.Label("mutual_b")
		b.Cmpi(isa.R1, 1)
		b.Nop(13)
		b.Nop(13)
		b.Jcc(isa.EQ, "mutual_b_rec")
		for i := 0; i < 16; i++ {
			b.Nop(1)
		}
		b.Ret()
		b.Org(mutualBRec)
		b.Label("mutual_b_rec")
		b.Movi(isa.R4, int64(mutualABase))
		b.Calli(isa.R4)
		b.Ret()
	}
	if err := v.Taken.Emit(b, takenExit); err != nil {
		return nil, fmt.Errorf("difftest seed %d (%s): taken chain: %w", seed, shape, err)
	}
	if v.Suffix != nil {
		if err := v.Suffix.Emit(b, "exit"); err != nil {
			return nil, fmt.Errorf("difftest seed %d (%s): suffix chain: %w", seed, shape, err)
		}
	}
	if v.FallUnc != nil {
		if err := v.FallUnc.Emit(b, "exit"); err != nil {
			return nil, fmt.Errorf("difftest seed %d (%s): fall uncacheable tail: %w", seed, shape, err)
		}
	}
	if v.TakenUnc != nil {
		if err := v.TakenUnc.Emit(b, "exit"); err != nil {
			return nil, fmt.Errorf("difftest seed %d (%s): taken uncacheable tail: %w", seed, shape, err)
		}
	}
	b.Org(exitAddr)
	b.Label("exit")
	b.Movi(isa.R0, 0x0DD)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("difftest seed %d (%s): %w", seed, shape, err)
	}
	v.Prog = p
	v.Entry = p.MustLabel("entry")
	v.Branch = branch
	return v, nil
}

// Prediction is the static side of one victim: the divergence finding
// and the two whole-program path costs.
type Prediction struct {
	Finding staticlint.Finding
	// TakenCost and FallCost price each direction's complete fetch path
	// (entry through HALT); Taken and Fall are their refill deltas —
	// the predicted probe-cycle signal per direction.
	TakenCost, FallCost staticlint.PathCost
	Taken, Fall         int
}

// Predict lints the victim, checks the divergence finding fires at the
// generated branch, and prices each secret direction as one
// whole-program fetch path: the shared prefix (entry region through
// the branch) concatenated with that direction's successor walk. A
// single RunCost call per direction prices the path as one complete
// run — the backend drain bound and its pipeline-fill lag apply once,
// the delivery/drain race is replayed cycle for cycle, and the run
// start/stop overhead lands on both sides — exactly as the measurement
// side pays them (PointRunner.Measure).
//
// Under a profile without a DSB the divergence finding is
// required to be ABSENT — there is no probe-visible footprint to
// diverge — and the per-direction costs are priced without it, so the
// mite-only contract (zero refill deltas on both paths) stays
// checkable end to end.
func (h *Harness) Predict(v *Victim) (Prediction, error) {
	a := staticlint.Analyze(v.Prog, Spec(), h.cfg)
	var found *staticlint.Finding
	for _, f := range (staticlint.FootprintDivergenceChecker{}).Check(a) {
		if f.Addr == v.Branch {
			g := f
			found = &g
			break
		}
	}
	if !h.Profile.HasDSB() {
		if found != nil {
			return Prediction{}, fmt.Errorf("difftest seed %d: divergence finding at branch %#x under the no-DSB profile %s",
				v.Seed, v.Branch, h.Profile.Name)
		}
		found = &staticlint.Finding{}
	} else if found == nil {
		return Prediction{}, fmt.Errorf("difftest seed %d: no divergence finding at branch %#x", v.Seed, v.Branch)
	} else if found.TakenCost == nil || found.FallCost == nil {
		return Prediction{}, fmt.Errorf("difftest seed %d: finding carries no path costs", v.Seed)
	}
	branch := v.Prog.At(v.Branch)
	var prefix []uopcache.Range
	fallRanges := a.FetchRanges(v.Entry, 0)
	if v.Shape == ShapeIndirectTable {
		// The straight-line walk ends at the dispatch call — a complete
		// two-target set still has no single successor to follow — so
		// stitch the run the simulator fetches: the entry through the
		// CALLI, then the hot dispatch target through the branch.
		// (ShapeIndirect and ShapeIndirectMutual need no stitch: the
		// walk continues through their singleton-resolved calls.)
		prefix = append(prefix, a.FetchRanges(v.Entry, 0)...)
		prefix = append(prefix, a.FetchRanges(v.Helper, branch.End())...)
		fallRanges = append(append([]uopcache.Range(nil), prefix...),
			a.FetchRanges(branch.End(), 0)...)
	} else {
		prefix = a.FetchRanges(v.Entry, branch.End())
	}
	takenRanges := append(append([]uopcache.Range(nil), prefix...),
		a.FetchRanges(uint64(branch.Imm), 0)...)
	takenCost := a.RunCost(takenRanges)
	fallCost := a.RunCost(fallRanges)
	return Prediction{
		Finding:   *found,
		TakenCost: takenCost,
		FallCost:  fallCost,
		Taken:     takenCost.RefillDelta,
		Fall:      fallCost.RefillDelta,
	}, nil
}

// Result is one victim's predicted-vs-measured comparison.
type Result struct {
	Seed                uint64
	PredTaken, PredFall int
	MeasTaken, MeasFall int
	Victim              *Victim
	// Prediction carries the full static side — per-direction path
	// costs including align-stall and switch-point breakouts — for the
	// per-shape validation the cycle deltas alone cannot express.
	Prediction *Prediction
	// Profile names the front-end profile the result was produced
	// under; NoDSB marks the no-DSB control contract (all four deltas
	// exactly zero) instead of the positive-±Tolerance one.
	Profile string
	NoDSB   bool
}

// RunWith generates, predicts, and measures one seed under the
// harness's profile, reusing arena (which may be nil).
func (h *Harness) RunWith(seed uint64, a *cpu.Arena) (Result, error) {
	v, err := h.Generate(seed)
	if err != nil {
		return Result{}, err
	}
	return h.runVictim(v, a)
}

// RunShapeWith is RunWith with the victim shape pinned (via
// GenerateShape) instead of drawn from the seed — the per-shape
// corpora use it.
func (h *Harness) RunShapeWith(seed uint64, shape Shape, a *cpu.Arena) (Result, error) {
	v, err := h.GenerateShape(seed, shape)
	if err != nil {
		return Result{}, err
	}
	return h.runVictim(v, a)
}

func (h *Harness) runVictim(v *Victim, a *cpu.Arena) (Result, error) {
	p, err := h.Predict(v)
	if err != nil {
		return Result{}, err
	}
	// One core, one program load, both directions forked from the
	// pristine checkpoint. The deltas are bit-identical to a fresh core
	// per direction (TestPointRunnerMatchesMeasure).
	r := h.NewPointRunner(v, a)
	taken, err := r.Measure(1)
	if err != nil {
		return Result{}, err
	}
	fall, err := r.Measure(0)
	if err != nil {
		return Result{}, err
	}
	mt, mf := taken.Delta, fall.Delta
	return Result{
		Seed:       v.Seed,
		PredTaken:  p.Taken,
		PredFall:   p.Fall,
		MeasTaken:  mt,
		MeasFall:   mf,
		Victim:     v,
		Prediction: &p,
		Profile:    h.Profile.Name,
		NoDSB:      !h.Profile.HasDSB(),
	}, nil
}

// Validate applies the acceptance contract to one result: each
// direction's predicted delta positive, within Tolerance of the
// measured delta, and the cross-direction asymmetry pointing the same
// way in prediction and measurement. Under a no-DSB profile the
// contract inverts: with nothing to flush, every delta — predicted and
// measured, both directions — must be exactly zero.
func (r Result) Validate() error {
	if r.NoDSB {
		if r.PredTaken != 0 || r.PredFall != 0 || r.MeasTaken != 0 || r.MeasFall != 0 {
			return fmt.Errorf("seed %d (%s): no-DSB profile leaked a refill delta: pred %d/%d, meas %d/%d\nvictim: %s",
				r.Seed, r.Profile, r.PredTaken, r.PredFall, r.MeasTaken, r.MeasFall, r.Describe())
		}
		return nil
	}
	for _, c := range []struct {
		dir        string
		pred, meas int
	}{
		{"taken", r.PredTaken, r.MeasTaken},
		{"fallthrough", r.PredFall, r.MeasFall},
	} {
		if c.meas <= 0 {
			return fmt.Errorf("seed %d %s: measured delta %d not positive (flush had no cost?)", r.Seed, c.dir, c.meas)
		}
		if c.pred <= 0 {
			return fmt.Errorf("seed %d %s: predicted delta %d has wrong sign (measured %d)", r.Seed, c.dir, c.pred, c.meas)
		}
		if err := checkTolerance(r.Seed, r.Victim, c.dir, "", c.pred, c.meas); err != nil {
			return err
		}
	}
	return checkSign(r.Seed, r.Victim, "delta", r.PredTaken-r.PredFall, r.MeasTaken-r.MeasFall)
}

// checkTolerance holds a prediction to within Tolerance of the positive
// measurement meas; what names the quantity, and unit follows the
// measured value in the error.
func checkTolerance(seed uint64, v *Victim, what, unit string, pred, meas int) error {
	diff := abs(pred - meas)
	if float64(diff) > Tolerance*float64(meas) {
		return fmt.Errorf("seed %d %s: predicted %d vs measured %d%s (%.1f%% off, tolerance %.0f%%)\nvictim: %s",
			seed, what, pred, meas, unit, 100*float64(diff)/float64(meas), 100*Tolerance, describeVictim(v))
	}
	return nil
}

// checkSign is the cross-direction check: when prediction and
// measurement both show a clear asymmetry between the directions
// (taken minus fallthrough), they must agree on which direction costs
// more. Below SignFloor on either side the asymmetry is within the
// model's rounding and carries no sign to agree on.
func checkSign(seed uint64, v *Victim, noun string, predDiff, measDiff int) error {
	if abs(predDiff) >= SignFloor && abs(measDiff) >= SignFloor && (predDiff > 0) != (measDiff > 0) {
		return fmt.Errorf("seed %d: predicted probe %s %+d disagrees in sign with measured %+d\nvictim: %s",
			seed, noun, predDiff, measDiff, describeVictim(v))
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Describe renders the victim's shape for failure messages and fixture
// minimization.
func (r Result) Describe() string { return describeVictim(r.Victim) }

func describeVictim(v *Victim) string {
	if v == nil {
		return "<nil>"
	}
	d := fmt.Sprintf("%s: taken %s, fall %s", v.Shape, describeChain(v.Taken), describeChain(v.Fall))
	if v.Suffix != nil {
		d += fmt.Sprintf(", suffix %s", describeChain(*v.Suffix))
	}
	if v.TakenUnc != nil {
		d += fmt.Sprintf(", taken-unc %s", describeChain(*v.TakenUnc))
	}
	if v.FallUnc != nil {
		d += fmt.Sprintf(", fall-unc %s", describeChain(*v.FallUnc))
	}
	return d
}

func describeChain(s codegen.ChainSpec) string {
	amp := "plain"
	if s.LCP {
		amp = "lcp"
	}
	if s.MsromUops > 0 {
		amp = fmt.Sprintf("msrom%d", s.MsromUops)
	}
	if s.JccOffset > 0 {
		amp = fmt.Sprintf("jcc@%d+%dt", s.JccOffset, s.JccTailNops)
	}
	return fmt.Sprintf("{sets %v ways %d nops %d×%d %s}", s.Sets, s.Ways, s.NopPerRegion, s.NopLen, amp)
}
