// Package staticlint is a control-flow-graph and taint-dataflow
// framework over assembled SX86 programs, with pluggable checkers for
// secret-dependent front-end leakage — the static counterpart of the
// cycle-level model this repository simulates.
//
// The paper's attack (§VI) works because victim code contains
// secret-dependent control flow whose two paths occupy different
// micro-op cache sets and ways; the §VI-A census found such "µop-cache
// gadgets" five times more common in torvalds/linux than classic
// Spectre-v1 double-loads. This package detects the enabling patterns
// before a program is ever simulated:
//
//   - secret-dependent branch: a conditional or indirect control
//     transfer whose predicate or target carries taint from a declared
//     secret (a constant-time violation);
//   - DSB footprint divergence: a secret-dependent branch whose two
//     successor paths occupy different micro-op cache sets/ways under
//     the placement rules of internal/uopcache — i.e. the divergence is
//     observable through the paper's prime+probe timing contract;
//   - MITE amplifiers: LCP-stall-bearing or microcoded (MSROM)
//     instructions on a secret-dependent path, which widen the
//     measurable cycle delta between hit and miss;
//   - the two §VI-A gadget classes (µop-cache gadget and Spectre-v1
//     double-load) on the dataflow engine, with kill-on-overwrite and
//     taint-through-memory precision; `uoplint -checkers
//     uop-cache-gadget,spectre-v1-gadget -random N` runs the census.
//
// The engine is a forward may-taint analysis over the CFG: a taint
// lattice seeded from declared secret registers and memory ranges,
// reaching definitions with kill on overwrite (including the
// xor/sub-self zeroing idioms), constant propagation for effective
// addresses, and taint through the memory model (strong updates at
// statically known addresses, a weak "unknown store" channel
// otherwise).
package staticlint

import (
	"fmt"
	"sort"
	"strings"

	"deaduops/internal/asm"
	"deaduops/internal/decode"
	"deaduops/internal/profile"
	"deaduops/internal/uopcache"
)

// Config parameterizes an analysis run.
type Config struct {
	// UopCache supplies the placement rules and set geometry for the
	// footprint divergence checker.
	UopCache uopcache.Config
	// Decode supplies the decode semantics (macro-fusion, µop
	// expansion) shared with the simulator.
	Decode decode.Config
	// PathBudget bounds how many macro-ops a successor-path walk
	// follows when computing footprints, amplifiers, and costs.
	PathBudget int
	// Checkers selects which checkers run; nil means all.
	Checkers []Checker
}

// DefaultDrainLag is the modelled pipeline's fill depth in cycles: the
// gap between the dispatch and retire streams that a drain-bound warm
// run pays and a fetch-bound cold run hides (decode to retire of the
// first micro-op, minus the cold run's short post-delivery tail).
// Calibrated once against internal/cpu and continuously re-validated
// by the differential harness in internal/staticlint/difftest.
const DefaultDrainLag = 6

// DefaultRunOverhead is the modelled core's constant per-run
// start/stop cost in cycles: the first fetch's spin-up plus the final
// HALT's retire. It is identical on the warm and cold sides of a run
// (so no refill delta contains it) and was calibrated the same way as
// DefaultDrainLag: fit once against internal/cpu run cycle counts,
// then held to ±25% of measurement per direction by the differential
// harness across every victim shape.
const DefaultRunOverhead = 3

// DefaultConfig returns the analysis configuration for the default
// registered profile (Skylake).
func DefaultConfig() Config {
	return ConfigForProfile(profile.Default())
}

// ConfigForProfile returns the analysis configuration for one
// registered front-end profile: the profile supplies the micro-op
// cache geometry and decode semantics, the analyzer supplies its own
// path budget; the receiver protocol (DefaultProbeIters,
// DefaultPrimeTraversals, DefaultVictimRuns) and the backend-derived
// drain and overhead calibration are the same for every profile (see
// Config.Costs).
func ConfigForProfile(p profile.Profile) Config {
	return Config{UopCache: p.UopCache, Decode: p.Decode, PathBudget: 48}
}

// Checker inspects an analyzed program and contributes findings.
type Checker interface {
	// Name identifies the checker in findings and CLI selection.
	Name() string
	// Check appends findings for the analyzed program.
	Check(a *Analysis) []Finding
}

// AllCheckers returns the full checker suite in report order.
func AllCheckers() []Checker {
	return []Checker{
		SecretBranchChecker{},
		FootprintDivergenceChecker{},
		JumpAlignmentChecker{},
		SwitchPointChecker{},
		MITEAmplifierChecker{},
		UopCacheGadgetChecker{},
		SpectreV1Checker{},
	}
}

// SelectCheckers resolves checker names (as reported by Checker.Name)
// to the corresponding subset of the full suite, preserving report
// order and ignoring duplicates. An unknown name is an error listing
// the valid ones.
func SelectCheckers(names []string) ([]Checker, error) {
	all := AllCheckers()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []Checker
	for _, c := range all {
		if want[c.Name()] {
			out = append(out, c)
			delete(want, c.Name())
		}
	}
	if len(want) > 0 {
		valid := make([]string, 0, len(all))
		for _, c := range all {
			valid = append(valid, c.Name())
		}
		// Every unknown name, sorted: `want` is a map, so reporting the
		// first range key would pick a nondeterministic one when several
		// names are bad.
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, fmt.Sprintf("%q", n))
		}
		sort.Strings(unknown)
		noun := "checker"
		if len(unknown) > 1 {
			noun = "checkers"
		}
		return nil, fmt.Errorf("staticlint: unknown %s %s (valid: %s)",
			noun, strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}

// Lint analyzes prog against spec and runs the configured checkers.
func Lint(prog *asm.Program, spec Spec, cfg Config) *Report {
	return lintAnalysis(Analyze(prog, spec, cfg), cfg)
}

// lintAnalysis runs the configured checkers over a finished analysis
// (shared by Lint and the cache-backed LintCached).
func lintAnalysis(a *Analysis, cfg Config) *Report {
	checkers := cfg.Checkers
	if checkers == nil {
		checkers = AllCheckers()
	}
	r := &Report{Resolved: a.ResolvedTargets(), Precision: a.PrecisionMetrics()}
	for _, c := range checkers {
		r.Findings = append(r.Findings, c.Check(a)...)
	}
	r.sort()
	return r
}
