package auditd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"deaduops/internal/parsweep"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

// Config tunes a Server.
type Config struct {
	// Workers is the job-queue worker count (GOMAXPROCS when <= 0):
	// how many audit jobs run concurrently.
	Workers int
	// QueueCap bounds the pending-job queue (minimum 1). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueCap int
	// JobWorkers is the per-job parsweep.Map worker count used to lint
	// the job's programs (GOMAXPROCS when <= 0).
	JobWorkers int
	// MaxJobs bounds the retained job results (minimum 1); the oldest
	// are forgotten first.
	MaxJobs int
}

// JobRequest is the POST /v1/jobs body, mirroring the CLI flags: the
// zero value audits the full victim corpus under the default profile
// with all checkers at info severity — exactly `uoplint -json`.
type JobRequest struct {
	// Fixture lints only the named corpus program (uoplint -fixture).
	Fixture string `json:"fixture,omitempty"`
	// Random additionally lints this many generated programs
	// (uoplint -random).
	Random int `json:"random,omitempty"`
	// Profile selects the front-end profile (uoplint -profile);
	// empty means the default.
	Profile string `json:"profile,omitempty"`
	// Checkers restricts the run to the named checkers
	// (uoplint -checkers); empty means all.
	Checkers []string `json:"checkers,omitempty"`
	// Severity is the minimum severity to report (uoplint -severity);
	// empty means info.
	Severity string `json:"severity,omitempty"`
}

// Job is the GET /v1/jobs/{id} body. CacheHits/CacheMisses count the
// report-layer cache outcomes of the job's programs — they ride in the
// job envelope, not the reports, so each ProgramReport stays
// byte-identical to the CLI wire form.
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued | running | done | failed
	Error  string `json:"error,omitempty"`
	// Reports appear when Status is done, in corpus order.
	Reports     []ProgramReport `json:"reports,omitempty"`
	CacheHits   int             `json:"cache_hits"`
	CacheMisses int             `json:"cache_misses"`
}

// JobCounters aggregates job outcomes for /v1/stats.
type JobCounters struct {
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Retained  int    `json:"retained"`
}

// Stats is the GET /v1/stats body: the cache's hit/miss counters, the
// queue's live depth, and the precision aggregate (havoc rate) over
// every report the server has produced.
type Stats struct {
	Cache      staticlint.CacheStats `json:"cache"`
	QueueDepth int                   `json:"queue_depth"`
	Workers    int                   `json:"workers"`
	Jobs       JobCounters           `json:"jobs"`
	// IndirectSites/ResolvedSites sum the per-program precision
	// metrics; HavocRate is the unresolved fraction (0 when the corpus
	// has no indirect sites).
	IndirectSites int     `json:"indirect_sites"`
	ResolvedSites int     `json:"resolved_sites"`
	HavocRate     float64 `json:"havoc_rate"`
}

// Server is the audit service: one shared incremental cache, one
// bounded worker pool, and a FIFO-retained job table. It implements
// http.Handler.
type Server struct {
	cfg    Config
	layout victim.Layout
	corpus []Program
	cache  *staticlint.Cache
	pool   *parsweep.Pool
	mux    *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	counters JobCounters
	indirect int
	resolved int
}

// New builds a Server (and its corpus) under cfg.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 1
	}
	lay := victim.DefaultLayout()
	corpus, err := Corpus(lay)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		layout: lay,
		corpus: corpus,
		cache:  staticlint.NewCache(),
		pool:   parsweep.NewPool(cfg.Workers, cfg.QueueCap),
		jobs:   make(map[string]*Job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Close drains the job queue and joins the workers.
func (s *Server) Close() { s.pool.Close() }

// Cache exposes the shared incremental cache (tests and stats).
func (s *Server) Cache() *staticlint.Cache { return s.cache }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request bounds. Every accepted job allocates in proportion to its
// random-program count, and an out-of-memory fault is fatal to the
// process rather than a panic the per-job containment can catch, so
// both the count and the body that carries it are capped at submit
// time.
const (
	maxRandom       = 10_000
	maxRequestBytes = 1 << 20
)

// jobPlan is a fully validated submission: everything the worker needs,
// resolved up front so a bad request fails with 400 at submit time, not
// as a failed job.
type jobPlan struct {
	req     JobRequest
	cfg     staticlint.Config
	profTag string
	minSev  staticlint.Severity
}

// plan validates a request against the same rules the CLI flags
// enforce.
func (s *Server) plan(req JobRequest) (*jobPlan, error) {
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
	// Default-profile reports keep an empty profile tag so the service
	// wire form matches the CLI's historical golden files byte for byte.
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
		names := make([]string, 0, len(s.corpus))
		for _, p := range s.corpus {
			names = append(names, p.Name)
			known = known || p.Name == req.Fixture
		}
		if !known {
			return nil, fmt.Errorf("unknown fixture %q (valid: %s)", req.Fixture, strings.Join(names, ", "))
		}
	}
	return &jobPlan{req: req, cfg: cfg, profTag: profTag, minSev: minSev}, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	p, err := s.plan(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	s.seq++
	job := &Job{ID: fmt.Sprintf("job-%d", s.seq), Status: "queued"}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	for len(s.order) > s.cfg.MaxJobs {
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()

	if !s.pool.TrySubmit(func() { s.runJob(job, p) }) {
		// Backpressure: the queue is full. Drop the job entry and tell
		// the client when to come back.
		s.mu.Lock()
		delete(s.jobs, job.ID)
		for i, id := range s.order {
			if id == job.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.counters.Rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.cfg.QueueCap)
		return
	}
	s.mu.Lock()
	s.counters.Accepted++
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "status": "queued"})
}

// runJob executes one audit on a pool worker. A panic anywhere in the
// analysis marks the job failed instead of taking the worker down —
// parsweep re-raises worker panics as *parsweep.PanicError, so the
// original fault and its stack survive into the job's error text.
func (s *Server) runJob(job *Job, p *jobPlan) {
	defer func() {
		if v := recover(); v != nil {
			s.finishJob(job, nil, 0, 0, fmt.Errorf("audit panicked: %v", v))
		}
	}()

	programs := make([]Program, 0, len(s.corpus)+p.req.Random)
	for _, prog := range s.corpus {
		if p.req.Fixture != "" && prog.Name != p.req.Fixture {
			continue
		}
		programs = append(programs, prog)
	}
	if p.req.Random > 0 {
		randoms, err := RandomPrograms(p.req.Random)
		if err != nil {
			s.finishJob(job, nil, 0, 0, err)
			return
		}
		programs = append(programs, randoms...)
	}

	s.mu.Lock()
	job.Status = "running"
	s.mu.Unlock()

	type lintOut struct {
		report ProgramReport
		hit    bool
	}
	results, err := parsweep.Map(parsweep.Options{Workers: s.cfg.JobWorkers}, len(programs),
		func(i int) (lintOut, error) {
			prog := programs[i]
			r, hit := staticlint.LintCached(prog.Prog, prog.Spec, p.cfg, s.cache)
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
				hit: hit,
			}, nil
		})
	if err != nil {
		s.finishJob(job, nil, 0, 0, err)
		return
	}
	reports := make([]ProgramReport, len(results))
	hits, misses := 0, 0
	for i, res := range results {
		reports[i] = res.report
		if res.hit {
			hits++
		} else {
			misses++
		}
	}
	s.finishJob(job, reports, hits, misses, nil)
}

func (s *Server) finishJob(job *Job, reports []ProgramReport, hits, misses int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.CacheHits, job.CacheMisses = hits, misses
	if err != nil {
		job.Status, job.Error = "failed", err.Error()
		s.counters.Failed++
		return
	}
	job.Status, job.Reports = "done", reports
	s.counters.Completed++
	for _, r := range reports {
		if r.Precision != nil {
			s.indirect += r.Precision.IndirectSites
			s.resolved += r.Precision.ResolvedSites
		}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	var cp Job
	if ok {
		cp = *job
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := Stats{
		Cache:         s.cache.Stats(),
		QueueDepth:    s.pool.QueueDepth(),
		Workers:       s.pool.Workers(),
		Jobs:          s.counters,
		IndirectSites: s.indirect,
		ResolvedSites: s.resolved,
	}
	st.Jobs.Retained = len(s.jobs)
	if s.indirect > 0 {
		st.HavocRate = 1 - float64(s.resolved)/float64(s.indirect)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
