package auditd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"deaduops/internal/parsweep"
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
	corpus, err := Corpus(victim.DefaultLayout())
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
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

// maxRequestBytes caps a POST body: see maxRandom for why request
// sizes are bounded at submit time.
const maxRequestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	p, err := NewPlan(req, s.corpus)
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
func (s *Server) runJob(job *Job, p *Plan) {
	defer func() {
		if v := recover(); v != nil {
			s.finishJob(job, Result{}, fmt.Errorf("audit panicked: %v", v))
		}
	}()
	s.mu.Lock()
	job.Status = "running"
	s.mu.Unlock()
	res, err := p.Run(s.corpus, s.cache, s.cfg.JobWorkers)
	s.finishJob(job, res, err)
}

func (s *Server) finishJob(job *Job, res Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.CacheHits, job.CacheMisses = res.CacheHits, res.CacheMisses
	if err != nil {
		job.Status, job.Error = "failed", err.Error()
		s.counters.Failed++
		return
	}
	job.Status, job.Reports = "done", res.Reports
	s.counters.Completed++
	for _, r := range res.Reports {
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
