// Command uoplint runs the static front-end leakage analyzer over
// guest programs: the canonical victims shipped with this repository
// and, optionally, a population of randomly generated programs. For
// each program it reports secret-dependent branches, micro-op cache
// footprint divergence between branch directions, MITE amplifiers on
// secret paths, and transient-execution gadgets — the static
// counterpart of the attacks the simulator demonstrates dynamically.
//
// Usage:
//
//	uoplint                  lint the victim corpus, human-readable
//	uoplint -json            machine-readable findings
//	uoplint -fixture pci-vpd lint one fixture
//	uoplint -severity error  keep only error-level findings
//	uoplint -fail-on warning exit 1 when findings at/above a severity exist
//	uoplint -checkers a,b    run only the named checkers (default all)
//	uoplint -random 20       also lint 20 random programs
//	uoplint -workers 4       dispatch the batch over 4 lint workers
//	uoplint -profile zen     lint under a registered front-end profile
//	uoplint -selftest        assert the canonical expectations (CI gate)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deaduops/internal/auditd"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

// programReport is the JSON wire form for one linted program, shared
// with the audit service (internal/auditd) so a CLI run and a daemon
// response are interchangeable artifacts.
type programReport = auditd.ProgramReport

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uoplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON   = fs.Bool("json", false, "emit findings as JSON")
		minSev   = fs.String("severity", "info", "minimum severity to report (info|warning|error)")
		fixture  = fs.String("fixture", "", "lint only the named fixture")
		random   = fs.Int("random", 0, "also lint this many randomly generated programs")
		selftest = fs.Bool("selftest", false, "assert canonical victim expectations and exit nonzero on mismatch")
		failOn   = fs.String("fail-on", "", "exit 1 when findings at/above this severity exist (info|warning|error)")
		checkers = fs.String("checkers", "", "comma-separated checker names to run (default: all)")
		workers  = fs.Int("workers", 0, "parallel lint workers (0 = GOMAXPROCS, 1 = sequential)")
		profName = fs.String("profile", profile.Default().Name,
			"front-end profile to lint under ("+strings.Join(profile.Names(), "|")+")")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// gate is the CI threshold: negative when -fail-on is unset. It is
	// the one flag with no counterpart in the audit request.
	gate := staticlint.Severity(-1)
	if *failOn != "" {
		var err error
		if gate, err = staticlint.ParseSeverity(*failOn); err != nil {
			fmt.Fprintln(stderr, "uoplint:", err)
			return 2
		}
	}
	// The corpus is shared with the audit service: victim fixtures under
	// the victim spec, then the codegen-emitted attack probes (which
	// carry no secrets — a finding on one would be a checker false
	// positive the selftest pins clean).
	corpus, err := auditd.Corpus(victim.DefaultLayout())
	if err != nil {
		fmt.Fprintln(stderr, "uoplint:", err)
		return 1
	}
	// The flags map onto the service's job request, so the CLI and
	// uoplintd validate and audit through the same plan.
	req := auditd.JobRequest{Fixture: *fixture, Random: *random, Profile: *profName, Severity: *minSev}
	for _, n := range strings.Split(*checkers, ",") {
		if n = strings.TrimSpace(n); n != "" {
			req.Checkers = append(req.Checkers, n)
		}
	}
	plan, err := auditd.NewPlan(req, corpus)
	if err != nil {
		fmt.Fprintln(stderr, "uoplint:", err)
		return 2
	}
	res, err := plan.Run(corpus, staticlint.NewCache(), *workers)
	if err != nil {
		fmt.Fprintln(stderr, "uoplint:", err)
		return 1
	}
	reports := res.Reports

	// The -fail-on gate is evaluated against every finding the analysis
	// produced, BEFORE the -severity display filter: the exit code is a
	// CI contract and must not depend on what the report chose to show
	// (`-severity error -fail-on warning` still fails on warnings). A
	// clean run exits 0; a tripped gate turns the exit code into 1
	// after the full report is emitted — the shape CI pipelines consume.
	exit := 0
	if gate >= 0 && res.MaxSeverity >= gate {
		exit = 1
	}

	if *selftest {
		if msgs := selfTest(reports, plan.Profile); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintf(stderr, "uoplint: selftest: %s\n", m)
			}
			return 1
		}
		if *asJSON {
			// -selftest -json emits the asserted reports (the CI
			// artifact form) instead of the one-line status.
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reports); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return exit
		}
		fmt.Fprintln(stdout, "uoplint: selftest ok")
		return exit
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if *fixture != "" && len(reports) == 1 {
			// Single-fixture mode emits the bare report object (the
			// golden-file form).
			if err := enc.Encode(reports[0]); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		} else if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return exit
	}

	total := 0
	for _, pr := range reports {
		fmt.Fprintf(stdout, "== %s", pr.Program)
		if pr.Description != "" {
			fmt.Fprintf(stdout, " — %s", pr.Description)
		}
		fmt.Fprintln(stdout)
		if len(pr.Findings) == 0 {
			fmt.Fprintln(stdout, "  no findings")
			continue
		}
		for _, f := range pr.Findings {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
		if p := pr.Precision; p != nil {
			fmt.Fprintf(stdout, "  indirect control flow: %d site(s), %d resolved, havoc rate %.2f (was %.2f)\n",
				p.IndirectSites, p.ResolvedSites, p.HavocRate, p.HavocRateBefore)
		}
		total += len(pr.Findings)
	}
	fmt.Fprintf(stdout, "\n%d findings across %d programs\n", total, len(reports))
	return exit
}

// selfTest checks the canonical expectations the paper's examples fix:
// the pci_vpd-style victim must exhibit both the secret-dependent
// branch and micro-op cache footprint divergence (it is the §VI-A
// gadget), while the plain Listing-4 bounds-check victim has a
// secret-dependent branch but no Spectre-v1 double-load. The
// expectations fork on the profile's capabilities: a decoder with no
// alignment penalty cannot raise jump-alignment findings, and with the
// DSB disabled the footprint-divergence channel vanishes while the
// purely decode-side findings survive.
func selfTest(reports []programReport, prof profile.Profile) []string {
	var msgs []string
	hasDSB := prof.HasDSB()
	hasAlign := prof.Decode.JccAlignPenalty > 0
	has := func(name, checker string) bool {
		for _, pr := range reports {
			if pr.Program != name {
				continue
			}
			for _, f := range pr.Findings {
				if f.Checker == checker {
					return true
				}
			}
		}
		return false
	}
	expect := func(name, checker string, want bool) {
		if has(name, checker) != want {
			verb := "missing"
			if !want {
				verb = "unexpected"
			}
			msgs = append(msgs, fmt.Sprintf("%s: %s %s finding", name, verb, checker))
		}
	}
	expect("pci-vpd", "secret-dependent-branch", true)
	expect("pci-vpd", "dsb-footprint-divergence", hasDSB)
	expect("pci-vpd", "uop-cache-gadget", true)
	expect("bounds-check", "secret-dependent-branch", true)
	expect("bounds-check", "spectre-v1-gadget", false)
	expect("indirect-call", "secret-dependent-branch", true)
	// The resolvable-dispatch victim: its secret branch lives behind a
	// program-built function-pointer table, so the findings below exist
	// only because the value-set resolution proves the complete handler
	// set and joins the summaries across the call — a havoc fallback
	// would smear the taint but lose the callee's footprint divergence
	// and the call chain into the handler.
	expect("fn-dispatch", "secret-dependent-branch", true)
	expect("fn-dispatch", "dsb-footprint-divergence", hasDSB)
	// Precision contract: fn-dispatch resolves its single dispatch site
	// (havoc rate 0 against a 1.0 before-rate), while Listing 5's
	// secret-indexed dispatch through runtime data memory must stay a
	// havoc site — resolution is a precision upgrade, not a soundness
	// trade.
	precision := func(name string) *staticlint.Precision {
		for _, pr := range reports {
			if pr.Program == name {
				return pr.Precision
			}
		}
		return nil
	}
	if p := precision("fn-dispatch"); p == nil || p.IndirectSites != 1 || p.ResolvedSites != 1 || p.HavocRate != 0 {
		msgs = append(msgs, fmt.Sprintf("fn-dispatch: precision %+v, want its one dispatch site resolved", p))
	}
	if p := precision("indirect-call"); p == nil || p.IndirectSites != 1 || p.ResolvedSites != 0 || p.HavocRate != 1 {
		msgs = append(msgs, fmt.Sprintf("indirect-call: precision %+v, want its data-dependent dispatch havocked", p))
	}
	// The front-end channel fixtures pin the two new checkers against
	// each other: the alignment victim leaks only through jump
	// alignment (both paths stay µop-cache resident), the switch victim
	// only through its warm DSB→MITE re-entry (no jump on either path
	// straddles a window).
	expect("jcc-align", "secret-dependent-jump-alignment", hasAlign)
	expect("jcc-align", "dsb-mite-switch", false)
	// The dsb-switch fixture packs 22 µops into its taken-path region —
	// past Skylake's 18-µop cacheability cap but inside Zen's 24 — so
	// the warm DSB→MITE re-entry it leaks through exists only on
	// profiles whose cap actually rejects the region.
	expect("dsb-switch", "dsb-mite-switch", hasDSB && prof.UopCapLine() < 22)
	expect("dsb-switch", "secret-dependent-jump-alignment", false)
	// The interprocedural victim: both callee branches (register-passed
	// and spill-passed secret) must be flagged, priced, and census'd,
	// and at least one finding must carry the call chain that names the
	// callee — the output contract the interprocedural layer adds.
	expect("callee-branch", "secret-dependent-branch", true)
	expect("callee-branch", "dsb-footprint-divergence", hasDSB)
	expect("callee-branch", "uop-cache-gadget", true)
	hasChainTo := func(name, callee string) bool {
		for _, pr := range reports {
			if pr.Program != name {
				continue
			}
			for _, f := range pr.Findings {
				for _, fr := range f.CallChain {
					if fr.CalleeLabel == callee {
						return true
					}
				}
			}
		}
		return false
	}
	for _, callee := range []string{"cb_reg", "cb_mem"} {
		if !hasChainTo("callee-branch", callee) {
			msgs = append(msgs, fmt.Sprintf("callee-branch: no finding carries a call chain into %s", callee))
		}
	}
	// The resolvable dispatch's findings must trace their chain through
	// the resolved indirect frame into the handler.
	if !hasChainTo("fn-dispatch", "fd_handler") {
		msgs = append(msgs, "fn-dispatch: no finding carries a call chain through the resolved dispatch into fd_handler")
	}
	// The sanitizing callee kills the secret before the caller
	// branches; any finding here means callee kill sets are ignored.
	for _, pr := range reports {
		if pr.Program != "callee-kill" {
			continue
		}
		for _, f := range pr.Findings {
			msgs = append(msgs, fmt.Sprintf("callee-kill: unexpected %s finding (callee sanitizes the secret)", f.Checker))
		}
	}
	// The codegen-emitted probe routines carry no secrets: any finding
	// on them is a false positive.
	for _, probe := range []string{"attack-tiger", "attack-fasttiger", "attack-zebra"} {
		seen := false
		for _, pr := range reports {
			if pr.Program != probe {
				continue
			}
			seen = true
			for _, f := range pr.Findings {
				msgs = append(msgs, fmt.Sprintf("%s: unexpected %s finding (probes hold no secrets)", probe, f.Checker))
			}
		}
		if !seen {
			msgs = append(msgs, fmt.Sprintf("%s: probe program missing from lint corpus", probe))
		}
	}
	// Every divergence finding must carry the quantifier's path costs:
	// positive cold cycles per direction and a warm cost not exceeding
	// the cold one (the refill delta the receiver probes for).
	for _, pr := range reports {
		for _, f := range pr.Findings {
			if f.Checker != "dsb-footprint-divergence" {
				continue
			}
			if f.TakenCost == nil || f.FallCost == nil {
				msgs = append(msgs, fmt.Sprintf("%s: divergence finding at %#x lacks path costs", pr.Program, f.Addr))
				continue
			}
			for dir, c := range map[string]*staticlint.PathCost{"taken": f.TakenCost, "fallthrough": f.FallCost} {
				if c.ColdCycles <= 0 || c.WarmCycles <= 0 || c.ColdCycles < c.WarmCycles {
					msgs = append(msgs, fmt.Sprintf("%s: divergence at %#x has implausible %s cost (warm %d, cold %d)",
						pr.Program, f.Addr, dir, c.WarmCycles, c.ColdCycles))
				}
			}
			// ... and the receiver model's probe histogram: the
			// attacker-observed prime+probe timings the finding predicts.
			h := f.Probe
			if h == nil {
				msgs = append(msgs, fmt.Sprintf("%s: divergence finding at %#x lacks a probe histogram", pr.Program, f.Addr))
				continue
			}
			if h.HitCycles <= 0 || h.Taken.Cycles < h.HitCycles || h.Fall.Cycles < h.HitCycles {
				msgs = append(msgs, fmt.Sprintf("%s: divergence at %#x has implausible probe cycles (hit %d, taken %d, fallthrough %d)",
					pr.Program, f.Addr, h.HitCycles, h.Taken.Cycles, h.Fall.Cycles))
			}
			if h.SeparationFloor != staticlint.ProbeSeparationFloor {
				msgs = append(msgs, fmt.Sprintf("%s: divergence at %#x states separation floor %.2f, want %.2f",
					pr.Program, f.Addr, h.SeparationFloor, staticlint.ProbeSeparationFloor))
			}
			if h.Distinguishable != (h.SeparationMargin >= h.SeparationFloor) {
				msgs = append(msgs, fmt.Sprintf("%s: divergence at %#x margin %.2f inconsistent with distinguishable=%v",
					pr.Program, f.Addr, h.SeparationMargin, h.Distinguishable))
			}
		}
	}
	return msgs
}
