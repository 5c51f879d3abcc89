package staticlint

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Severity ranks a finding.
type Severity int

// Severity levels, ascending.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// ParseSeverity converts a CLI string to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return SevInfo, nil
	case "warning", "warn":
		return SevWarning, nil
	case "error":
		return SevError, nil
	}
	return SevInfo, fmt.Errorf("staticlint: unknown severity %q", s)
}

// Confidence states how certain the analysis is that real secret data
// reaches the flagged site.
type Confidence int

// Confidence levels.
const (
	// May: the taint path involves an unresolved address that may
	// alias a declared secret (sound over-approximation).
	May Confidence = iota
	// Definite: a declared secret register or a resolved secret-range
	// read reaches the site.
	Definite
)

// String implements fmt.Stringer.
func (c Confidence) String() string {
	if c == Definite {
		return "definite"
	}
	return "may"
}

// SetOccupancy is one set's predicted way occupancy, for findings.
type SetOccupancy struct {
	Set  int `json:"set"`
	Ways int `json:"ways"`
}

// CallFrame is one hop of a finding's interprocedural trace: the call
// site executed and the callee it enters. A finding inside a function
// only reachable through calls carries the chain from a caller-less
// root down to the flagged site, rendered root-first. The chain is one
// representative (shortest) path; a site with multiple callers or in a
// shared tail block has other real paths the trace does not list.
type CallFrame struct {
	CallSite    uint64
	Callee      uint64
	CalleeLabel string
}

// Finding is one checker result.
type Finding struct {
	// Checker names the producing checker.
	Checker  string     `json:"checker"`
	Severity Severity   `json:"-"`
	Conf     Confidence `json:"-"`
	// Addr is the primary site (the flagged branch or sink).
	Addr uint64 `json:"-"`
	// Message is the human-readable one-liner.
	Message string `json:"message"`
	// Sources lists the taint sources reaching the site.
	Sources []string `json:"sources,omitempty"`
	// CallChain traces how control reaches the flagged site across
	// function boundaries (empty when the site is in a root function).
	CallChain []CallFrame `json:"-"`
	// Guard/Load/Sink trace a gadget finding's chain (zero when
	// inapplicable).
	Guard uint64 `json:"-"`
	Load  uint64 `json:"-"`
	Sink  uint64 `json:"-"`
	// TakenFootprint/FallFootprint carry the per-set way occupancy of
	// the two successor paths for divergence findings.
	TakenFootprint []SetOccupancy `json:"taken_footprint,omitempty"`
	FallFootprint  []SetOccupancy `json:"fallthrough_footprint,omitempty"`
	// DivergentSets are the sets whose occupancy differs between the
	// paths — the observable signal.
	DivergentSets []int `json:"divergent_sets,omitempty"`
	// TakenCost/FallCost price the two successor paths of a divergence
	// finding in probe cycles (nil when inapplicable); the predicted
	// values are differentially validated against the cycle-level
	// front end by internal/staticlint/difftest.
	TakenCost *PathCost `json:"taken_cost,omitempty"`
	FallCost  *PathCost `json:"fallthrough_cost,omitempty"`
	// ProbeDeltaCycles is the signed headline number: the taken path's
	// refill penalty minus the fall-through path's.
	ProbeDeltaCycles int `json:"-"`
	// AlignDeltaCycles is the jump-alignment checker's headline: the
	// taken path's boundary-straddle stall cycles minus the
	// fall-through's (nonzero only on secret-dependent-jump-alignment
	// findings).
	AlignDeltaCycles int `json:"-"`
	// SwitchDeltaCycles is the dsb-mite-switch checker's headline: the
	// signed warm-traversal switch-bubble cost difference between the
	// directions (switch-count difference × per-switch bubble cycles).
	SwitchDeltaCycles int `json:"-"`
	// Probe is the receiver model's predicted prime/probe timing
	// histogram for a divergence finding (nil when inapplicable or the
	// model is disabled).
	Probe *ProbeHistogram `json:"-"`
}

// callFrameJSON is CallFrame's wire form (hex addresses).
type callFrameJSON struct {
	CallSite    string `json:"call_site"`
	Callee      string `json:"callee"`
	CalleeLabel string `json:"callee_label,omitempty"`
}

// findingJSON is the stable wire form: addresses rendered as hex
// strings so goldens stay readable and diffable.
type findingJSON struct {
	Checker           string          `json:"checker"`
	Severity          string          `json:"severity"`
	Confidence        string          `json:"confidence"`
	Addr              string          `json:"addr"`
	Message           string          `json:"message"`
	Sources           []string        `json:"sources,omitempty"`
	CallChain         []callFrameJSON `json:"call_chain,omitempty"`
	Guard             string          `json:"guard,omitempty"`
	Load              string          `json:"load,omitempty"`
	Sink              string          `json:"sink,omitempty"`
	TakenFootprint    []SetOccupancy  `json:"taken_footprint,omitempty"`
	FallFootprint     []SetOccupancy  `json:"fallthrough_footprint,omitempty"`
	DivergentSets     []int           `json:"divergent_sets,omitempty"`
	TakenCost         *PathCost       `json:"taken_cost,omitempty"`
	FallCost          *PathCost       `json:"fallthrough_cost,omitempty"`
	ProbeDeltaCycles  *int            `json:"predicted_probe_delta_cycles,omitempty"`
	AlignDeltaCycles  *int            `json:"predicted_align_delta_cycles,omitempty"`
	SwitchDeltaCycles *int            `json:"predicted_switch_delta_cycles,omitempty"`
	Probe             *ProbeHistogram `json:"probe_histogram,omitempty"`
}

func callChainJSON(chain []CallFrame) []callFrameJSON {
	var out []callFrameJSON
	for _, fr := range chain {
		out = append(out, callFrameJSON{
			CallSite:    fmt.Sprintf("%#x", fr.CallSite),
			Callee:      fmt.Sprintf("%#x", fr.Callee),
			CalleeLabel: fr.CalleeLabel,
		})
	}
	return out
}

func hexOrEmpty(v uint64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%#x", v)
}

// MarshalJSON implements json.Marshaler.
func (f Finding) MarshalJSON() ([]byte, error) {
	j := findingJSON{
		Checker:        f.Checker,
		Severity:       f.Severity.String(),
		Confidence:     f.Conf.String(),
		Addr:           fmt.Sprintf("%#x", f.Addr),
		Message:        f.Message,
		Sources:        f.Sources,
		CallChain:      callChainJSON(f.CallChain),
		Guard:          hexOrEmpty(f.Guard),
		Load:           hexOrEmpty(f.Load),
		Sink:           hexOrEmpty(f.Sink),
		TakenFootprint: f.TakenFootprint,
		FallFootprint:  f.FallFootprint,
		DivergentSets:  f.DivergentSets,
		TakenCost:      f.TakenCost,
		FallCost:       f.FallCost,
		Probe:          f.Probe,
	}
	if f.TakenCost != nil || f.FallCost != nil {
		d := f.ProbeDeltaCycles
		j.ProbeDeltaCycles = &d
	}
	if f.AlignDeltaCycles != 0 {
		d := f.AlignDeltaCycles
		j.AlignDeltaCycles = &d
	}
	if f.SwitchDeltaCycles != 0 {
		d := f.SwitchDeltaCycles
		j.SwitchDeltaCycles = &d
	}
	return json.Marshal(j)
}

// String renders the finding for terminal output.
func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s/%s] %#x: %s", f.Checker, f.Severity, f.Conf, f.Addr, f.Message)
	for _, s := range f.Sources {
		fmt.Fprintf(&b, "\n    source: %s", s)
	}
	if len(f.CallChain) > 0 {
		b.WriteString("\n    call chain:")
		for i, fr := range f.CallChain {
			name := fr.CalleeLabel
			if name == "" {
				name = fmt.Sprintf("%#x", fr.Callee)
			}
			if i > 0 {
				b.WriteString(" →")
			}
			fmt.Fprintf(&b, " call@%#x → %s", fr.CallSite, name)
		}
	}
	if len(f.DivergentSets) > 0 {
		fmt.Fprintf(&b, "\n    divergent sets: %v", f.DivergentSets)
	}
	if f.TakenCost != nil && f.FallCost != nil {
		fmt.Fprintf(&b, "\n    predicted cycles: taken warm %d / cold %d (+%d), fallthrough warm %d / cold %d (+%d), probe delta %+d",
			f.TakenCost.WarmCycles, f.TakenCost.ColdCycles, f.TakenCost.RefillDelta,
			f.FallCost.WarmCycles, f.FallCost.ColdCycles, f.FallCost.RefillDelta,
			f.ProbeDeltaCycles)
	}
	if f.AlignDeltaCycles != 0 && f.TakenCost != nil && f.FallCost != nil {
		fmt.Fprintf(&b, "\n    jump alignment: taken straddles %d boundary(ies) for %d stall cycles, fallthrough %d for %d — align delta %+d",
			f.TakenCost.AlignJccs, f.TakenCost.AlignStallCycles,
			f.FallCost.AlignJccs, f.FallCost.AlignStallCycles,
			f.AlignDeltaCycles)
	}
	if f.SwitchDeltaCycles != 0 && f.TakenCost != nil && f.FallCost != nil {
		fmt.Fprintf(&b, "\n    switch points: taken pays %d DSB→MITE switches warm (%d cold), fallthrough %d (%d cold) — switch delta %+d cycles",
			f.TakenCost.WarmSwitchPoints, f.TakenCost.ColdSwitchPoints,
			f.FallCost.WarmSwitchPoints, f.FallCost.ColdSwitchPoints,
			f.SwitchDeltaCycles)
	}
	if p := f.Probe; p != nil {
		verdict := "below floor — not decodable by a total-time probe"
		if p.Distinguishable {
			verdict = fmt.Sprintf("decodable (floor %.2f×)", p.SeparationFloor)
		}
		fmt.Fprintf(&b, "\n    predicted probe: hit %d, taken %d (%d misses), fallthrough %d (%d misses) cycles over %d traversals; direction cut %.0f, separation %.2f× — %s",
			p.HitCycles, p.Taken.Cycles, p.Taken.ProbeMisses,
			p.Fall.Cycles, p.Fall.ProbeMisses, p.ProbeIters,
			p.DirectionCut, p.SeparationMargin, verdict)
	}
	return b.String()
}

// Report is the ordered finding list for one program, plus the
// indirect-target resolution results the findings were computed under.
type Report struct {
	Findings []Finding `json:"findings"`
	// Resolved lists the CALLI/JMPI sites the value-set analysis proved
	// complete target sets for (resolve.go); empty when none resolved.
	Resolved []ResolvedSite `json:"resolved_targets,omitempty"`
	// Precision counts indirect sites vs resolved sites (nil when the
	// program has no indirect dispatch).
	Precision *Precision `json:"precision,omitempty"`
}

// sort orders findings deterministically: by address, then checker,
// then message — so JSON output is diffable across runs and PRs.
func (r *Report) sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
}

// ByChecker returns the findings produced by the named checker.
func (r *Report) ByChecker(name string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Checker == name {
			out = append(out, f)
		}
	}
	return out
}

// MaxSeverity returns the highest severity present (SevInfo when
// empty).
func (r *Report) MaxSeverity() Severity {
	max := SevInfo
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// Filter returns a report keeping findings at or above min severity.
// Resolution results are analysis facts, not findings, and pass through
// unfiltered. When every finding passes, the result shares r's backing
// array, clipped to its length (r.Findings[:n:n]) so an append copies
// instead of writing into r; findings are read-only under that
// contract. Otherwise the kept findings are a fresh slice, nil when
// none pass.
func (r *Report) Filter(min Severity) *Report {
	out := &Report{Resolved: r.Resolved, Precision: r.Precision}
	if n := len(r.Findings); n > 0 && !slices.ContainsFunc(r.Findings, func(f Finding) bool { return f.Severity < min }) {
		out.Findings = r.Findings[:n:n]
		return out
	}
	for _, f := range r.Findings {
		if f.Severity >= min {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
}
