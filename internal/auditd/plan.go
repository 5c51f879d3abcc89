package auditd

import (
	"fmt"
	"strings"

	"deaduops/internal/parsweep"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
)

// maxRandom caps a request's random-program count. The first
// maxRetainedRandom programs come from the per-process prefix
// (corpus.go), so an audit generates, and holds for its lifetime,
// programs in proportion to the count beyond it, plus one report per
// program. An out-of-memory fault is fatal to the process rather than
// a panic the per-job containment can catch, so the count is bounded
// when the request is planned — for the service and the CLI alike.
const maxRandom = 10_000

// Plan is a validated audit request: everything a run needs, resolved
// up front so a bad request fails before any analysis starts (400 at
// submit time in the service, exit 2 in the CLI). cmd/uoplint and the
// service both audit through NewPlan and Plan.Run.
type Plan struct {
	req JobRequest
	// Profile is the front-end profile the programs are linted under.
	Profile profile.Profile
	cfg     staticlint.Config
	profTag string
	minSev  staticlint.Severity
}

// NewPlan validates req against the corpus it will run over.
func NewPlan(req JobRequest, corpus []Program) (*Plan, error) {
	if req.Random < 0 || req.Random > maxRandom {
		return nil, fmt.Errorf("random must be in [0, %d], got %d", maxRandom, req.Random)
	}
	profName := req.Profile
	if profName == "" {
		profName = profile.Default().Name
	}
	prof, err := profile.Get(profName)
	if err != nil {
		return nil, err
	}
	// Default-profile reports keep an empty profile tag so the wire
	// form matches the historical golden files byte for byte.
	profTag := ""
	if prof.Name != profile.Default().Name {
		profTag = prof.Name
	}
	sev := req.Severity
	if sev == "" {
		sev = "info"
	}
	minSev, err := staticlint.ParseSeverity(sev)
	if err != nil {
		return nil, err
	}
	cfg := staticlint.ConfigForProfile(prof)
	if len(req.Checkers) > 0 {
		sel, err := staticlint.SelectCheckers(req.Checkers)
		if err != nil {
			return nil, err
		}
		cfg.Checkers = sel
	}
	if req.Fixture != "" {
		known := false
		names := make([]string, 0, len(corpus))
		for _, p := range corpus {
			names = append(names, p.Name)
			known = known || p.Name == req.Fixture
		}
		if !known {
			return nil, fmt.Errorf("unknown fixture %q (valid: %s)", req.Fixture, strings.Join(names, ", "))
		}
	}
	return &Plan{req: req, Profile: prof, cfg: cfg, profTag: profTag, minSev: minSev}, nil
}

// Result is the output of one audit run.
type Result struct {
	// Reports holds one display-filtered report per program, in
	// corpus order followed by random-1..random-n.
	Reports []ProgramReport
	// CacheHits/CacheMisses count the report-layer cache outcomes.
	CacheHits, CacheMisses int
	// MaxSeverity is the highest severity among every finding the
	// analysis produced, BEFORE the severity display filter (-1 when
	// there are none): a CI gate must not depend on what the report
	// chose to show.
	MaxSeverity staticlint.Severity
}

// Run lints the plan's programs — the selected corpus entries, then
// the requested random population — over workers parallel lint workers
// (GOMAXPROCS when <= 0) sharing cache. parsweep.Map returns results in
// input order, so the reports are byte-identical at any worker count.
func (p *Plan) Run(corpus []Program, cache *staticlint.Cache, workers int) (Result, error) {
	programs := make([]Program, 0, len(corpus)+p.req.Random)
	for _, prog := range corpus {
		if p.req.Fixture == "" || prog.Name == p.req.Fixture {
			programs = append(programs, prog)
		}
	}
	// Random programs carry no declared secrets; only the transient
	// gadget checkers can fire on them.
	if p.req.Random > 0 {
		randoms, err := RandomPrograms(p.req.Random)
		if err != nil {
			return Result{}, err
		}
		programs = append(programs, randoms...)
	}

	type lintOut struct {
		report ProgramReport
		maxSev staticlint.Severity
		hit    bool
	}
	outs, err := parsweep.Map(parsweep.Options{Workers: workers}, len(programs),
		func(i int) (lintOut, error) {
			prog := programs[i]
			r, hit := staticlint.LintCached(prog.Prog, prog.Spec, p.cfg, cache)
			maxSev := staticlint.Severity(-1)
			if len(r.Findings) > 0 {
				maxSev = r.MaxSeverity()
			}
			r = r.Filter(p.minSev)
			return lintOut{
				report: ProgramReport{
					Program:     prog.Name,
					Description: prog.Description,
					Profile:     p.profTag,
					Findings:    r.Findings,
					Resolved:    r.Resolved,
					Precision:   r.Precision,
				},
				maxSev: maxSev,
				hit:    hit,
			}, nil
		})
	if err != nil {
		return Result{}, err
	}
	res := Result{Reports: make([]ProgramReport, len(outs)), MaxSeverity: -1}
	for i, out := range outs {
		res.Reports[i] = out.report
		res.MaxSeverity = max(res.MaxSeverity, out.maxSev)
		if out.hit {
			res.CacheHits++
		} else {
			res.CacheMisses++
		}
	}
	return res, nil
}
