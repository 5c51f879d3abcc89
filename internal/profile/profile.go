// Package profile is the registry of named front-end
// microarchitecture profiles, and the one place the five modelled
// machines are defined. A profile holds the two halves that differ
// between frontend flavours — DSB geometry, sharing policy and switch
// penalty (uopcache.Config), and decoder widths and alignment penalty
// (decode.Config); what every part shares (the placement rules, region
// size, decoder counts, LCP stall, predecode window) is a constant of
// those packages. The simulator (internal/cpu.FromProfile) and the
// static analyzer (internal/staticlint.ConfigForProfile) each read the
// two values directly, so the cycles a core charges and the cycles the
// analyzer prices come from the same constants; everything
// frontend-agnostic (IDQ depth, backend widths, memory hierarchy) keeps
// its single default in its own package.
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
	// Decode is the legacy-decode (MITE) configuration: decoder widths
	// and the Jcc-alignment penalty.
	Decode decode.Config
}

// HasDSB reports whether the profile has a functioning micro-op cache.
// The mite-only control profile returns false: every fetch takes the
// legacy-decode path and DSB-carried channels are structurally absent.
func (p Profile) HasDSB() bool { return !p.UopCache.Disabled }

// UopCapLine returns the largest cacheable region in µops
// (MaxLinesPerRegion × SlotsPerLine — 18 on Skylake).
func (p Profile) UopCapLine() int {
	return uopcache.MaxLinesPerRegion * p.UopCache.SlotsPerLine
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
	p.UopCache.Ways = 12
	return p
}

// Zen is the AMD Zen-like profile: 2K-µop op cache competitively
// shared between SMT threads, 8-wide op-cache delivery, four 1:2
// decoders (microcode for anything wider), no Jcc-alignment penalty.
func Zen() Profile {
	return Profile{
		Name:        "zen",
		Description: "AMD Zen: 32s×8w×8µ op cache, competitive SMT sharing, 1:2 decoders",
		UopCache: uopcache.Config{
			Sets: 32, Ways: 8, SlotsPerLine: 8, HotnessMax: 8,
			SMT: uopcache.ShareCompetitive, SwitchPenalty: 1,
		},
		Decode: decode.Config{ComplexUopMax: 2, DecodeWidth: 8, PredecodeWidth: 4},
	}
}

// Zen2 is the AMD Zen-2-like profile: the paper notes Zen-2 op caches
// hold as many as 4K µops (64 sets here, index bits 5-10).
func Zen2() Profile {
	p := Zen()
	p.Name = "zen2"
	p.Description = "AMD Zen 2: 64s×8w×8µ op cache (4K µops), competitive SMT sharing"
	p.UopCache.Sets = 64
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

// profiles lists every profile's constructor in name order, the order
// Names and All return. Constructors, not values, keep the profiles
// immutable: every Get returns a fresh copy.
var profiles = []func() Profile{MITEOnly, Skylake, SunnyCove, Zen, Zen2}

// Get returns the named profile. The error lists the profile names,
// so a CLI can surface it directly.
func Get(name string) (Profile, error) {
	for _, fn := range profiles {
		if p := fn(); p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("profile: unknown profile %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the profile names, sorted.
func Names() []string {
	names := make([]string, len(profiles))
	for i, fn := range profiles {
		names[i] = fn().Name
	}
	return names
}

// All returns every profile in name order.
func All() []Profile {
	out := make([]Profile, len(profiles))
	for i, fn := range profiles {
		out[i] = fn()
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

// Matrix returns the profiles selected by MatrixEnv — all profiles
// when it is unset or empty. An unknown name is an error, so
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
