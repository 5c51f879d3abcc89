// Package auditd implements the leakage-audit pipeline shared by
// cmd/uoplint and cmd/uoplintd — NewPlan validates a JobRequest,
// Plan.Run lints it — and the long-lived service behind cmd/uoplintd:
// an HTTP/JSON front door over that pipeline, backed by a bounded job
// queue (parsweep.Pool) and the incremental per-function summary cache
// (staticlint.Cache), so re-auditing a corpus after an edit
// re-analyzes only what the edit reaches.
package auditd

import (
	"fmt"
	"sync"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/ref"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

// Program is one audit unit: a linked guest program plus the secret
// declaration it is linted under. The CLI and the service share this
// corpus so their reports are interchangeable.
type Program struct {
	Name        string
	Description string
	Prog        *asm.Program
	Spec        staticlint.Spec
}

// VictimSpec declares the secrets of the shared victim layout: the
// kernel secret array and the second secret word. The ABI constant
// "R2 = 0" is deliberately NOT declared — the linter models the victim
// as callable with arbitrary registers, so loads whose address depends
// on an unresolved register are reported at may confidence.
func VictimSpec(l victim.Layout) staticlint.Spec {
	return staticlint.Spec{
		SecretRanges: []staticlint.MemRange{
			{Start: l.SecretBase, End: l.SecretBase + uint64(l.ArrayLen)},
			{Start: l.Secret2Addr, End: l.Secret2Addr + 8},
		},
	}
}

// Corpus assembles the canonical audit corpus: every victim fixture
// under its secret spec, then the three codegen-emitted attack probes
// (tiger, fast tiger, zebra), which carry no secrets — a finding on
// one is a checker false positive the selftest pins.
func Corpus(l victim.Layout) ([]Program, error) {
	var out []Program
	spec := VictimSpec(l)
	for _, fx := range victim.Fixtures(l) {
		out = append(out, Program{
			Name:        fx.Name,
			Description: fx.Description,
			Prog:        fx.Prog,
			Spec:        spec,
		})
	}
	g := attack.DefaultGeometry()
	probes := []struct {
		name, desc string
		build      func() (*attack.Routine, error)
	}{
		{"attack-tiger", "codegen tiger probe (LCP-padded prime+probe receiver)",
			func() (*attack.Routine, error) { return attack.Build(attack.Tiger(0x40000, g, "tiger")) }},
		{"attack-fasttiger", "codegen fast-tiger probe (dense low-latency receiver)",
			func() (*attack.Routine, error) { return attack.Build(attack.FastTiger(0x40000, g, "fasttiger")) }},
		{"attack-zebra", "codegen zebra probe (alternate-set occupancy pattern)",
			func() (*attack.Routine, error) { return attack.Build(attack.Zebra(0x40000, g, "zebra")) }},
	}
	for _, p := range probes {
		r, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("auditd: building %s: %w", p.name, err)
		}
		out = append(out, Program{Name: p.name, Description: p.desc, Prog: r.Prog})
	}
	return out, nil
}

// maxRetainedRandom caps the random programs the process keeps for
// reuse. A generated program is about 12.6 KB live, so the cap bounds
// the retained prefix near 13 MB however large a population a request
// names; seeds past it are generated per call and die with the job.
const maxRetainedRandom = 1024

// randomPrefix holds random-1..random-k, generated once per process and
// grown on demand up to maxRetainedRandom. Its elements are never
// written after they are appended, and callers receive it capped at
// their length, so they share it read-only.
var randomPrefix struct {
	mu    sync.Mutex
	progs []Program
}

// RandomPrograms returns n reference programs under the default
// generator config, named random-1..random-n exactly as the CLI's
// -random flag does. Random programs carry no declared secrets; only
// the transient gadget checkers can fire on them. The first
// maxRetainedRandom programs are generated once per process and shared
// by every call: the returned slice and its programs are read-only, and
// appending to it copies rather than writing into the shared prefix.
func RandomPrograms(n int) ([]Program, error) {
	keep := min(n, maxRetainedRandom)
	randomPrefix.mu.Lock()
	for len(randomPrefix.progs) < keep {
		p, err := randomProgram(len(randomPrefix.progs) + 1)
		if err != nil {
			randomPrefix.mu.Unlock()
			return nil, err
		}
		randomPrefix.progs = append(randomPrefix.progs, p)
	}
	prefix := randomPrefix.progs[:keep:keep]
	randomPrefix.mu.Unlock()
	if n <= keep {
		return prefix, nil
	}
	out := make([]Program, n)
	copy(out, prefix)
	for seed := keep + 1; seed <= n; seed++ {
		p, err := randomProgram(seed)
		if err != nil {
			return nil, err
		}
		out[seed-1] = p
	}
	return out, nil
}

// randomProgram generates the reference program named random-<seed>.
func randomProgram(seed int) (Program, error) {
	p, err := ref.Generate(uint64(seed), ref.DefaultGenConfig())
	if err != nil {
		return Program{}, fmt.Errorf("auditd: generating random-%d: %w", seed, err)
	}
	return Program{Name: fmt.Sprintf("random-%d", seed), Prog: p}, nil
}
