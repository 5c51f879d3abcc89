package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deaduops/internal/profile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runJSON invokes the CLI in single-fixture JSON mode.
func runJSON(t *testing.T, fixture string) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", fixture}, &out, &errb); code != 0 {
		t.Fatalf("uoplint exited %d: %s", code, errb.String())
	}
	return out.Bytes()
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenPCIVPD(t *testing.T) {
	got := runJSON(t, "pci-vpd")
	goldenCompare(t, "pci-vpd.json", got)

	// The golden must witness the two paper-level findings: the victim's
	// secret-dependent tag branch and its micro-op cache footprint
	// divergence.
	var pr struct {
		Findings []struct {
			Checker string `json:"checker"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range pr.Findings {
		seen[f.Checker] = true
	}
	for _, want := range []string{"secret-dependent-branch", "dsb-footprint-divergence", "uop-cache-gadget"} {
		if !seen[want] {
			t.Errorf("pci-vpd golden lacks a %s finding", want)
		}
	}

	// The divergence findings must carry the leakage quantifier's
	// numbers — per-direction path costs and the signed probe delta —
	// and the receiver model's probe histogram: the attacker-observed
	// prime+probe timings, decision cut, and separation margin.
	for _, field := range []string{
		`"taken_cost"`, `"fallthrough_cost"`,
		`"refill_delta_cycles"`, `"predicted_probe_delta_cycles"`,
		`"probe_histogram"`, `"predicted_hit_cycles"`,
		`"direction_cut"`, `"separation_margin"`, `"distinguishable"`,
	} {
		if !bytes.Contains(got, []byte(field)) {
			t.Errorf("pci-vpd golden lacks quantifier field %s", field)
		}
	}

	// The histogram's margin verdict in the golden must be internally
	// coherent with the stated floor.
	var probed struct {
		Findings []struct {
			Checker string `json:"checker"`
			Probe   *struct {
				Hit             int     `json:"predicted_hit_cycles"`
				Margin          float64 `json:"separation_margin"`
				Floor           float64 `json:"separation_floor"`
				Distinguishable bool    `json:"distinguishable"`
			} `json:"probe_histogram"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &probed); err != nil {
		t.Fatal(err)
	}
	for _, f := range probed.Findings {
		if f.Checker != "dsb-footprint-divergence" {
			continue
		}
		if f.Probe == nil {
			t.Error("pci-vpd divergence finding lacks probe_histogram")
			continue
		}
		if f.Probe.Hit <= 0 {
			t.Errorf("probe_histogram hit cycles %d not positive", f.Probe.Hit)
		}
		if f.Probe.Distinguishable != (f.Probe.Margin >= f.Probe.Floor) {
			t.Errorf("probe_histogram margin %.2f vs floor %.2f inconsistent with distinguishable=%v",
				f.Probe.Margin, f.Probe.Floor, f.Probe.Distinguishable)
		}
	}
}

// TestAttackProbesClean pins the codegen-emitted probe routines free of
// findings: tigers and zebras hold no secrets, so anything the linter
// reports on them is a false positive.
func TestAttackProbesClean(t *testing.T) {
	for _, name := range []string{"attack-tiger", "attack-fasttiger", "attack-zebra"} {
		got := runJSON(t, name)
		var pr struct {
			Findings []json.RawMessage `json:"findings"`
		}
		if err := json.Unmarshal(got, &pr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pr.Findings) != 0 {
			t.Errorf("%s: %d unexpected finding(s):\n%s", name, len(pr.Findings), got)
		}
	}
}

// TestSelftestJSON checks the CI artifact mode: -selftest -json runs
// the assertions and emits the full report set on success.
func TestSelftestJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-selftest", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("selftest -json failed (%d): %s", code, errb.String())
	}
	var reports []struct {
		Program string `json:"program"`
	}
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("selftest -json output not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, r := range reports {
		names[r.Program] = true
	}
	for _, want := range []string{"pci-vpd", "bounds-check", "attack-tiger", "attack-zebra"} {
		if !names[want] {
			t.Errorf("selftest -json output missing program %q", want)
		}
	}
}

func TestGoldenBoundsCheck(t *testing.T) {
	got := runJSON(t, "bounds-check")
	goldenCompare(t, "bounds-check.json", got)

	// Listing 4 alone: the bounds branch is secret-dependent (its length
	// load may alias the secrets), but there is no Spectre-v1 double
	// load — the census distinction the paper draws in §VI-A.
	var pr struct {
		Findings []struct {
			Checker string `json:"checker"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	var hasBranch, hasSpectre bool
	for _, f := range pr.Findings {
		switch f.Checker {
		case "secret-dependent-branch":
			hasBranch = true
		case "spectre-v1-gadget":
			hasSpectre = true
		}
	}
	if !hasBranch {
		t.Error("bounds-check golden lacks the secret-dependent-branch finding")
	}
	if hasSpectre {
		t.Error("bounds-check golden wrongly contains a spectre-v1-gadget finding")
	}
}

// TestGoldenCalleeBranch pins the interprocedural victim: both callee
// branches (register-passed and spill-passed secret) must be flagged
// and their findings must carry the call chain naming the callee.
func TestGoldenCalleeBranch(t *testing.T) {
	got := runJSON(t, "callee-branch")
	goldenCompare(t, "callee-branch.json", got)

	var pr struct {
		Findings []struct {
			Checker   string `json:"checker"`
			CallChain []struct {
				CalleeLabel string `json:"callee_label"`
			} `json:"call_chain"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	chains := map[string]bool{}
	for _, f := range pr.Findings {
		seen[f.Checker] = true
		for _, fr := range f.CallChain {
			chains[fr.CalleeLabel] = true
		}
	}
	for _, want := range []string{"secret-dependent-branch", "dsb-footprint-divergence", "uop-cache-gadget"} {
		if !seen[want] {
			t.Errorf("callee-branch golden lacks a %s finding", want)
		}
	}
	for _, callee := range []string{"cb_reg", "cb_mem"} {
		if !chains[callee] {
			t.Errorf("callee-branch golden has no call chain into %s", callee)
		}
	}
	if !bytes.Contains(got, []byte(`"call_chain"`)) {
		t.Error("callee-branch golden lacks the call_chain field")
	}
}

// TestGoldenCalleeKill pins the false-positive gate: the callee zeroes
// the secret before the caller branches, so the report must be empty.
func TestGoldenCalleeKill(t *testing.T) {
	got := runJSON(t, "callee-kill")
	goldenCompare(t, "callee-kill.json", got)

	var pr struct {
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Findings) != 0 {
		t.Errorf("callee-kill: %d unexpected finding(s):\n%s", len(pr.Findings), got)
	}
}

func TestSelftestFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-selftest"}, &out, &errb); code != 0 {
		t.Fatalf("selftest failed (%d): %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "selftest ok") {
		t.Errorf("selftest output = %q", out.String())
	}
}

func TestSeverityFilter(t *testing.T) {
	var all, errOnly bytes.Buffer
	run([]string{"-json"}, &all, &bytes.Buffer{})
	run([]string{"-json", "-severity", "error"}, &errOnly, &bytes.Buffer{})
	if errOnly.Len() >= all.Len() {
		t.Errorf("error-only output (%d bytes) not smaller than full output (%d bytes)",
			errOnly.Len(), all.Len())
	}
	if strings.Contains(errOnly.String(), `"severity": "warning"`) {
		t.Error("severity filter leaked warning findings")
	}
}

func TestUnknownFixtureRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fixture", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown fixture exit = %d, want 2", code)
	}
}

// TestBadFlagValuesExit2 pins the usage-error contract for the flags
// the audit service also validates: the CLI maps them onto a job
// request, so each bad value exits 2 with the service's message —
// including the service's cap on the random population.
func TestBadFlagValuesExit2(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-random", "-1"}, "random must be in [0, 10000], got -1"},
		{[]string{"-random", "10001"}, "random must be in [0, 10000], got 10001"},
		{[]string{"-severity", "catastrophic"}, "unknown severity"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.wantErr) {
			t.Errorf("%v: error %q, want it to contain %q", tc.args, errb.String(), tc.wantErr)
		}
	}
}

// TestGoldenJccAlign pins the alignment-channel fixture: the
// jump-alignment checker must fire with its cycle-quantified delta in
// the JSON form.
func TestGoldenJccAlign(t *testing.T) {
	got := runJSON(t, "jcc-align")
	goldenCompare(t, "jcc-align.json", got)

	var pr struct {
		Findings []struct {
			Checker    string `json:"checker"`
			AlignDelta int    `json:"predicted_align_delta_cycles"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range pr.Findings {
		if f.Checker == "secret-dependent-jump-alignment" {
			found = true
			if f.AlignDelta == 0 {
				t.Error("jump-alignment finding carries no predicted_align_delta_cycles")
			}
		}
		if f.Checker == "dsb-mite-switch" {
			t.Error("jcc-align golden wrongly contains a dsb-mite-switch finding")
		}
	}
	if !found {
		t.Error("jcc-align golden lacks the secret-dependent-jump-alignment finding")
	}
}

// TestGoldenDsbSwitch pins the switch-point fixture likewise.
func TestGoldenDsbSwitch(t *testing.T) {
	got := runJSON(t, "dsb-switch")
	goldenCompare(t, "dsb-switch.json", got)

	var pr struct {
		Findings []struct {
			Checker     string `json:"checker"`
			SwitchDelta int    `json:"predicted_switch_delta_cycles"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range pr.Findings {
		if f.Checker == "dsb-mite-switch" {
			found = true
			if f.SwitchDelta == 0 {
				t.Error("switch finding carries no predicted_switch_delta_cycles")
			}
		}
		if f.Checker == "secret-dependent-jump-alignment" {
			t.Error("dsb-switch golden wrongly contains a jump-alignment finding")
		}
	}
	if !found {
		t.Error("dsb-switch golden lacks the dsb-mite-switch finding")
	}
}

// TestProfileFlagRejectsUnknown pins the -profile usage contract: an
// unregistered profile name is a usage error naming the registry.
func TestProfileFlagRejectsUnknown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-profile", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown profile exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown profile") {
		t.Errorf("unknown-profile error = %q", errb.String())
	}
	if !strings.Contains(errb.String(), "skylake") || !strings.Contains(errb.String(), "zen") {
		t.Errorf("unknown-profile error does not list the registry: %q", errb.String())
	}
}

// TestSelftestZen runs the capability-gated selftest under the Zen
// profile and requires the JSON artifact to name the profile on every
// report.
func TestSelftestZen(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-selftest", "-json", "-profile", "zen"}, &out, &errb); code != 0 {
		t.Fatalf("selftest -json -profile zen failed (%d): %s", code, errb.String())
	}
	var reports []struct {
		Program string `json:"program"`
		Profile string `json:"profile"`
	}
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("selftest -json output not JSON: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("selftest -json emitted no reports")
	}
	for _, r := range reports {
		if r.Profile != "zen" {
			t.Errorf("%s: report profile %q, want zen", r.Program, r.Profile)
		}
	}
}

// TestGoldenJccAlignZen pins the alignment fixture under the Zen
// profile: AMD's decoder prices no predecode straddle penalty, so the
// jump-alignment finding present in the default golden must be absent
// here — the microarchitectural fork the profile matrix exists to
// surface — while the report carries the profile tag.
func TestGoldenJccAlignZen(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", "jcc-align", "-profile", "zen"}, &out, &errb); code != 0 {
		t.Fatalf("uoplint exited %d: %s", code, errb.String())
	}
	got := out.Bytes()
	goldenCompare(t, "jcc-align.zen.json", got)

	var pr struct {
		Profile  string `json:"profile"`
		Findings []struct {
			Checker string `json:"checker"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Profile != "zen" {
		t.Errorf("report profile %q, want zen", pr.Profile)
	}
	for _, f := range pr.Findings {
		if f.Checker == "secret-dependent-jump-alignment" {
			t.Error("jump-alignment finding fired under the penalty-free zen decoder")
		}
	}
}

// TestGoldenFnDispatch pins the resolvable-dispatch fixture: the
// value-set pass must resolve its table-loaded call, the report must
// carry the resolved target set and precision metrics, and the
// divergence finding must reach fd_handler through the resolved frame
// — the end-to-end contract the havoc-only linter could not state.
func TestGoldenFnDispatch(t *testing.T) {
	got := runJSON(t, "fn-dispatch")
	goldenCompare(t, "fn-dispatch.json", got)

	var pr struct {
		Resolved []struct {
			Kind    string   `json:"kind"`
			Targets []string `json:"targets"`
		} `json:"resolved_targets"`
		Precision *struct {
			IndirectSites int     `json:"indirect_sites"`
			ResolvedSites int     `json:"resolved_sites"`
			HavocRate     float64 `json:"havoc_rate"`
			Before        float64 `json:"havoc_rate_before"`
		} `json:"precision"`
		Findings []struct {
			Checker   string `json:"checker"`
			CallChain []struct {
				CalleeLabel string `json:"callee_label"`
			} `json:"call_chain"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Resolved) != 1 || pr.Resolved[0].Kind != "calli" || len(pr.Resolved[0].Targets) != 2 {
		t.Fatalf("resolved_targets = %+v, want one calli site with both table slots", pr.Resolved)
	}
	if p := pr.Precision; p == nil ||
		p.IndirectSites != 1 || p.ResolvedSites != 1 || p.HavocRate != 0 || p.Before != 1 {
		t.Fatalf("precision = %+v, want the single site fully resolved from a 1.0 before-rate", pr.Precision)
	}
	chained := false
	for _, f := range pr.Findings {
		if f.Checker != "dsb-footprint-divergence" {
			continue
		}
		for _, fr := range f.CallChain {
			if fr.CalleeLabel == "fd_handler" {
				chained = true
			}
		}
	}
	if !chained {
		t.Error("fn-dispatch divergence finding does not chain into fd_handler through the resolved call")
	}
}

// TestFailOnFlag pins the CI gate: -fail-on turns findings at or above
// the named severity into a non-zero exit while leaving the report
// intact, a clean fixture still exits zero, and a bogus severity is a
// usage error.
func TestFailOnFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", "pci-vpd", "-fail-on", "error"}, &out, &errb); code != 1 {
		t.Errorf("pci-vpd -fail-on error exit = %d, want 1 (%s)", code, errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte(`"findings"`)) {
		t.Error("-fail-on suppressed the report body")
	}

	out.Reset()
	if code := run([]string{"-json", "-fixture", "callee-kill", "-fail-on", "warning"}, &out, &errb); code != 0 {
		t.Errorf("clean fixture -fail-on warning exit = %d, want 0 (%s)", code, errb.String())
	}

	// The gate must be independent of the -severity display filter:
	// error-severity findings survive filtering and still trip it...
	if code := run([]string{"-json", "-fixture", "pci-vpd", "-severity", "error", "-fail-on", "warning"},
		&out, &errb); code != 1 {
		t.Errorf("filtered pci-vpd -fail-on warning exit = %d, want 1", code)
	}

	// ...and findings the display filter hides must trip it too: the
	// exit code is a CI contract over what the analysis found, not over
	// what the report chose to show. indirect-call's spectre-v1-gadget
	// finding is warning severity, so `-severity error` empties the
	// displayed report while `-fail-on warning` must still fail.
	out.Reset()
	if code := run([]string{"-json", "-fixture", "indirect-call", "-checkers", "spectre-v1-gadget",
		"-severity", "error", "-fail-on", "warning"}, &out, &errb); code != 1 {
		t.Errorf("display-filtered warning -fail-on warning exit = %d, want 1", code)
	}
	var filtered struct {
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &filtered); err != nil {
		t.Fatalf("decoding filtered report: %v", err)
	}
	if len(filtered.Findings) != 0 {
		t.Errorf("displayed findings = %d, want 0 (the gate, not the filter, carries the warning)", len(filtered.Findings))
	}

	errb.Reset()
	if code := run([]string{"-fail-on", "fatal"}, &out, &errb); code != 2 {
		t.Errorf("bogus -fail-on exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "severity") {
		t.Errorf("bogus -fail-on error = %q", errb.String())
	}
}

// TestGoldenPCIVPDZen pins the paper victim's receiver model under the
// Zen profile: AMD's µop cache is physically partitioned per thread,
// so the probe histogram's timings differ from the Skylake golden, but
// the divergence finding and its histogram must survive — the channel
// exists on both vendors (§VII of the paper).
func TestGoldenPCIVPDZen(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", "pci-vpd", "-profile", "zen"}, &out, &errb); code != 0 {
		t.Fatalf("uoplint exited %d: %s", code, errb.String())
	}
	got := out.Bytes()
	goldenCompare(t, "pci-vpd.zen.json", got)

	var pr struct {
		Profile  string `json:"profile"`
		Findings []struct {
			Checker string `json:"checker"`
			Probe   *struct {
				Hit             int  `json:"predicted_hit_cycles"`
				Distinguishable bool `json:"distinguishable"`
			} `json:"probe_histogram"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Profile != "zen" {
		t.Errorf("report profile %q, want zen", pr.Profile)
	}
	found := false
	for _, f := range pr.Findings {
		if f.Checker != "dsb-footprint-divergence" {
			continue
		}
		found = true
		if f.Probe == nil || f.Probe.Hit <= 0 {
			t.Errorf("zen divergence finding lacks a usable probe_histogram: %+v", f.Probe)
		}
	}
	if !found {
		t.Error("pci-vpd.zen golden lacks the dsb-footprint-divergence finding")
	}
}

// TestGoldenPCIVPDMiteOnly pins the control profile: with the DSB
// disabled there is no µop-cache footprint to diverge, so the
// divergence checker and its histogram must vanish while the
// constant-time findings remain — the null-hypothesis report.
func TestGoldenPCIVPDMiteOnly(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", "pci-vpd", "-profile", "mite-only"}, &out, &errb); code != 0 {
		t.Fatalf("uoplint exited %d: %s", code, errb.String())
	}
	got := out.Bytes()
	goldenCompare(t, "pci-vpd.mite-only.json", got)

	var pr struct {
		Profile  string `json:"profile"`
		Findings []struct {
			Checker string `json:"checker"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(got, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Profile != "mite-only" {
		t.Errorf("report profile %q, want mite-only", pr.Profile)
	}
	var hasBranch bool
	for _, f := range pr.Findings {
		if f.Checker == "dsb-footprint-divergence" {
			t.Error("divergence finding fired with the DSB disabled")
		}
		if f.Checker == "secret-dependent-branch" {
			hasBranch = true
		}
	}
	if !hasBranch {
		t.Error("mite-only control lost the constant-time findings")
	}
	if bytes.Contains(got, []byte(`"probe_histogram"`)) {
		t.Error("mite-only control carries a probe histogram")
	}
}

// TestCheckersFlag pins the -checkers selection: only the named
// checkers run, and an unknown name is a usage error.
func TestCheckersFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-fixture", "jcc-align",
		"-checkers", "secret-dependent-jump-alignment"}, &out, &errb); code != 0 {
		t.Fatalf("uoplint exited %d: %s", code, errb.String())
	}
	var pr struct {
		Findings []struct {
			Checker string `json:"checker"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Findings) == 0 {
		t.Fatal("selected checker produced no findings")
	}
	for _, f := range pr.Findings {
		if f.Checker != "secret-dependent-jump-alignment" {
			t.Errorf("-checkers leaked finding from %s", f.Checker)
		}
	}

	var errOut bytes.Buffer
	if code := run([]string{"-checkers", "no-such-checker"}, &out, &errOut); code != 2 {
		t.Errorf("unknown checker exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown checker") {
		t.Errorf("unknown-checker error = %q", errOut.String())
	}
}

// TestWorkersDeterministic pins the parallel batch contract: the full
// JSON report — corpus plus a random population — is byte-identical
// whether linted sequentially or across four workers sharing one
// incremental cache.
func TestWorkersDeterministic(t *testing.T) {
	runWith := func(workers string) []byte {
		var out, errb bytes.Buffer
		args := []string{"-json", "-random", "12", "-workers", workers}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("-workers %s exited %d: %s", workers, code, errb.String())
		}
		return out.Bytes()
	}
	seq := runWith("1")
	par := runWith("4")
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel report diverges from sequential report")
	}
}

// TestGoldenRandomCorpusDigests pins the full JSON report of the
// corpus plus 200 random programs under every registered profile, as
// one SHA-256 digest per profile (the reports themselves run to tens of
// kilobytes each). The random population exercises the value-set
// resolution pass, the summary cache and the shared random-program
// prefix on inputs no hand-written fixture covers, so a change to any
// of them that is meant to be behaviour-preserving must leave every
// digest alone.
func TestGoldenRandomCorpusDigests(t *testing.T) {
	var b strings.Builder
	for _, name := range profile.Names() {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", "-random", "200", "-profile", name}, &out, &errb); code != 0 {
			t.Fatalf("-random 200 -profile %s exited %d: %s", name, code, errb.String())
		}
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(out.Bytes()))
	}
	goldenCompare(t, "random200.sha256", []byte(b.String()))
}
