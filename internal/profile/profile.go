// Package profile is the registry of named front-end
// microarchitecture profiles. A profile holds the two halves that
// differ between frontend flavours — DSB geometry, sharing policy,
// switch penalty and stream width (uopcache.Config), and decoder widths
// and alignment penalties (decode.Config). The simulator
// (internal/cpu.FromProfile) and the static analyzer
// (internal/staticlint.ConfigForProfile) each read those two values
// directly, so the cycles a core charges and the cycles the analyzer
// prices come from the same constants; everything frontend-agnostic
// (IDQ depth, backend widths, memory hierarchy) keeps its single
// default in its own package.
//
// The built-in profiles mirror the paper's targets: Intel
// Skylake/Coffee Lake and Sunny Cove, AMD Zen and Zen 2, plus a
// synthetic "mite-only" control with the DSB disabled entirely — an
// in-order-style legacy-decode baseline against which DSB-carried
// leakage must vanish while decode-carried (alignment) leakage
// survives.
package profile

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"deaduops/internal/decode"
	"deaduops/internal/uopcache"
)

// Profile names one front-end microarchitecture configuration.
type Profile struct {
	// Name is the registry key ("skylake", "zen", ...).
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// UopCache is the DSB geometry, sharing policy, and switch penalty.
	UopCache uopcache.Config
	// Decode is the legacy-decode (MITE) configuration: decoder widths,
	// LCP and Jcc-alignment penalties, predecode window.
	Decode decode.Config
}

// HasDSB reports whether the profile has a functioning micro-op cache.
// The mite-only control profile returns false: every fetch takes the
// legacy-decode path and DSB-carried channels are structurally absent.
func (p Profile) HasDSB() bool { return !p.UopCache.Disabled }

// UopCapLine returns the largest cacheable region in µops
// (MaxLinesPerRegion × SlotsPerLine — 18 on Skylake).
func (p Profile) UopCapLine() int {
	return p.UopCache.MaxLinesPerRegion * p.UopCache.SlotsPerLine
}

// Skylake is the Intel Skylake/Coffee Lake profile the paper
// characterizes: 32×8×6 DSB, 1:4 decoders, LSD fused off (SKL150),
// 2-cycle window-straddling Jcc penalty.
func Skylake() Profile {
	return Profile{
		Name:        "skylake",
		Description: "Intel Skylake/Coffee Lake: 32s×8w×6µ DSB, static SMT partition, 1:4 decoders",
		UopCache:    uopcache.Skylake(),
		Decode:      decode.Skylake(),
	}
}

// SunnyCove is the Intel Sunny Cove-like profile: the paper notes the
// DSB grew 1.5× over Skylake (modelled as 12 ways).
func SunnyCove() Profile {
	p := Skylake()
	p.Name = "sunnycove"
	p.Description = "Intel Sunny Cove: 32s×12w×6µ DSB (1.5× Skylake), otherwise Skylake frontend"
	p.UopCache = uopcache.SunnyCove()
	return p
}

// Zen is the AMD Zen-like profile: 2K-µop op cache competitively
// shared between SMT threads, 8-wide op-cache delivery, no
// Jcc-alignment penalty.
func Zen() Profile {
	return Profile{
		Name:        "zen",
		Description: "AMD Zen: 32s×8w×8µ op cache, competitive SMT sharing, 1:2 decoders",
		UopCache:    uopcache.Zen(),
		Decode:      decode.Zen(),
	}
}

// Zen2 is the AMD Zen-2-like profile: the 4K-µop op cache (64 sets).
func Zen2() Profile {
	p := Zen()
	p.Name = "zen2"
	p.Description = "AMD Zen 2: 64s×8w×8µ op cache (4K µops), competitive SMT sharing"
	p.UopCache = uopcache.Zen2()
	return p
}

// MITEOnly is the synthetic no-DSB control profile: Skylake's decode
// path with the µop cache disabled. Every fetch takes the legacy
// path, so warm and cold runs are indistinguishable to a DSB
// prime/probe attacker — the in-order-style leakage baseline.
func MITEOnly() Profile {
	p := Skylake()
	p.Name = "mite-only"
	p.Description = "Synthetic control: Skylake decode with the DSB disabled (legacy path only)"
	p.UopCache.Disabled = true
	return p
}

// registry maps name → constructor. Constructors (not values) keep
// registered profiles immutable: every Get returns a fresh copy.
var registry = map[string]func() Profile{}

// Register adds a named profile constructor. It panics on a duplicate
// or empty name — registration is init-time wiring, not runtime input.
func Register(name string, fn func() Profile) {
	if name == "" || fn == nil {
		panic("profile: empty registration")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("profile: duplicate registration %q", name))
	}
	registry[name] = fn
}

func init() {
	for _, fn := range []func() Profile{Skylake, SunnyCove, Zen, Zen2, MITEOnly} {
		Register(fn().Name, fn)
	}
}

// Get returns the named profile. The error lists the registered names,
// so a CLI can surface it directly.
func Get(name string) (Profile, error) {
	fn, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("profile: unknown profile %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return fn(), nil
}

// Names returns the registered profile names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered profile in name order.
func All() []Profile {
	names := Names()
	out := make([]Profile, 0, len(names))
	for _, n := range names {
		p, _ := Get(n)
		out = append(out, p)
	}
	return out
}

// Default returns the default profile (Skylake) — the one every
// un-parameterized entry point resolves to, keeping the pre-registry
// behaviour (and its goldens) byte-identical.
func Default() Profile { return Skylake() }

// MatrixEnv is the environment variable the CI profile matrix sets: a
// comma-separated list of profile names restricting which profiles the
// per-profile test suites run under.
const MatrixEnv = "DEADUOPS_PROFILE"

// Matrix returns the profiles selected by MatrixEnv — all registered
// profiles when it is unset or empty. An unknown name is an error, so
// a typo in a CI matrix axis fails loudly instead of silently testing
// nothing.
func Matrix() ([]Profile, error) {
	v := strings.TrimSpace(os.Getenv(MatrixEnv))
	if v == "" {
		return All(), nil
	}
	var out []Profile
	for _, name := range strings.Split(v, ",") {
		p, err := Get(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
