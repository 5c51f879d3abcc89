package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"deaduops/internal/auditd"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
)

// auditClients is the number of closed-loop HTTP clients: the load
// goroutines of this workload.
const auditClients = 2

// auditRandom are the generated-program counts a fresh request asks
// for. random=N always audits the programs random-1..N, so the values
// nest and a profile re-analyzes programs only when it first sees a
// larger N.
var auditRandom = [...]int{0, 50, 100, 200, 400}

// auditCI are the fixtures the CI audit-service job submits, as
// {"fixture": name} with the default profile and every checker: the
// one caller of the service the repository has.
var auditCI = [...]string{"pci-vpd", "fn-dispatch"}

// Request-stream shape. Each block of auditBlock consecutive ops holds,
// in a seeded order:
//
//   - the CI job's requests, one per fixture. On the long-lived server
//     the first of each is CI's cold pass and every later one its warm
//     pass, a report-cache read;
//   - one fresh request per random count, each under another profile
//     and a seeded checker subset;
//   - the previous block's fresh requests again, as their warm pass: a
//     report-cache read of the same size.
//
// So every request is sent cold and then warm, as the CI job sends its
// fixtures, and past the first block 7 of 12 ops are report-cache
// reads. No traffic log of the service exists, so these shares and the
// random counts are assumptions, not measurements. Fixing the mix in
// every block keeps the work per op the same on every seed; only the
// order, the profiles and the checker subsets vary.
const auditBlock = 2*len(auditRandom) + len(auditCI)

// auditPollEvery is the clients' job-status polling interval.
const auditPollEvery = time.Millisecond

// auditTimeout bounds one op; a job not done by then fails the op.
const auditTimeout = 60 * time.Second

var (
	auditProfiles []string
	auditCheckers []string
)

func init() {
	for _, p := range profile.All() {
		auditProfiles = append(auditProfiles, p.Name)
	}
	for _, c := range staticlint.AllCheckers() {
		auditCheckers = append(auditCheckers, c.Name())
	}
}

// auditSlot returns which slot of its block op i fills: below
// len(auditRandom) a fresh request, then the CI requests, then the
// warm passes.
func auditSlot(seed int64, i int) int {
	block := uint64(i / auditBlock)
	perm := make([]int, auditBlock)
	for k := range perm {
		perm[k] = k
	}
	for k := len(perm) - 1; k > 0; k-- {
		j := int(mix(seed, streamAudit, block<<8|uint64(k)) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%auditBlock]
}

// auditRequest returns op i's request, and the first op that sent the
// same request (i itself for a fresh request).
func auditRequest(seed int64, i int) (auditd.JobRequest, int) {
	n := len(auditRandom)
	slot := auditSlot(seed, i)
	block := i / auditBlock
	switch {
	case slot >= n && slot < n+len(auditCI):
		// The first block holds the first request of each CI fixture.
		first := 0
		for auditSlot(seed, first) != slot {
			first++
		}
		return auditd.JobRequest{Fixture: auditCI[slot-n]}, first
	case slot >= n+len(auditCI) && block > 0:
		// The warm pass of the previous block's fresh request in slot k.
		k := slot - n - len(auditCI)
		prev := (block - 1) * auditBlock
		for auditSlot(seed, prev) != k {
			prev++
		}
		return auditRequest(seed, prev)
	}
	// A fresh request. The first block's warm-pass slots have no cold
	// pass before them, so they send fresh requests too.
	shift := int(mix(seed, streamAudit, 1<<41|uint64(block)) % uint64(n))
	req := auditd.JobRequest{
		Random:  auditRandom[slot%n],
		Profile: auditProfiles[(slot+shift)%len(auditProfiles)],
	}
	// A quarter of the fresh requests run every checker; the rest a
	// non-empty subset.
	if pick := mix(seed, streamAudit, 1<<42|uint64(i)); pick%4 != 0 {
		mask := 1 + (pick>>2)%(1<<len(auditCheckers)-1)
		for c, name := range auditCheckers {
			if mask>>c&1 == 1 {
				req.Checkers = append(req.Checkers, name)
			}
		}
	}
	return req, i
}

// auditMix drives an in-process uoplintd server over loopback HTTP.
type auditMix struct {
	seed   int64
	srv    *auditd.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// Per-op measurements, and the cache counters after set-up.
	queueWait []int64
	respBytes []int64
	before    staticlint.CacheStats
}

func setupAudit(seed int64) (system, error) {
	srv, err := auditd.New(auditd.Config{Workers: 2, QueueCap: 64, JobWorkers: 2, MaxJobs: 1024})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &auditMix{
		seed:   seed,
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: auditClients, DisableCompression: true},
			Timeout:   auditTimeout,
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.get("/healthz"); err != nil {
		s.close()
		return nil, err
	}
	if s.before, err = s.stats(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *auditMix) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// get fetches path and returns the body of a 200 response.
func (s *auditMix) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *auditMix) stats() (staticlint.CacheStats, error) {
	body, err := s.get("/v1/stats")
	if err != nil {
		return staticlint.CacheStats{}, err
	}
	var st auditd.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return staticlint.CacheStats{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st.Cache, nil
}

func (s *auditMix) run(r *recorder) {
	if s.queueWait == nil {
		s.queueWait = make([]int64, len(r.done))
		s.respBytes = make([]int64, len(r.done))
	}
	var wg sync.WaitGroup
	for c := 0; c < auditClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r.claim(); i >= 0; i = r.claim() {
				r.op(i, func(root int32) ([sha256.Size]byte, error) { return s.op(r, i, root) })
			}
		}()
	}
	wg.Wait()
	// A repeated request must get byte-identical reports, whether it was
	// served from the report cache or recomputed.
	for i, done := range r.done {
		if !done {
			continue
		}
		if _, first := auditRequest(s.seed, i); first != i && r.done[first] && r.digest[first] != r.digest[i] {
			r.fail(i, fmt.Errorf("op %d: reports differ from op %d's for the same request", i, first))
		}
	}
}

// jobView is the part of a job response the client reads.
type jobView struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Error   string          `json:"error"`
	Reports json.RawMessage `json:"reports"`
}

func (s *auditMix) op(r *recorder, i int, root int32) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	req, _ := auditRequest(s.seed, i)
	body, err := json.Marshal(req)
	if err != nil {
		return zero, err
	}
	start := r.now()
	sp := r.begin("auditd.submit", i, root)
	id, err := s.submit(body)
	r.end(sp)
	if err != nil {
		return zero, err
	}
	waitStart := r.now()
	queued := true
	for {
		pollStart := r.now()
		resp, err := s.get("/v1/jobs/" + id)
		if err != nil {
			return zero, err
		}
		var job jobView
		if err := json.Unmarshal(resp, &job); err != nil {
			return zero, fmt.Errorf("decoding job %s: %w", id, err)
		}
		now := r.now()
		if queued && job.Status != "queued" {
			queued = false
			s.queueWait[i] = now - start
		}
		switch job.Status {
		case "done":
			r.spanAt("auditd.wait", i, root, waitStart, pollStart)
			r.spanAt("auditd.fetch", i, root, pollStart, now)
			s.respBytes[i] = int64(len(resp))
			h := sha256.New()
			h.Write(body)
			h.Write(job.Reports)
			var d [sha256.Size]byte
			h.Sum(d[:0])
			return d, nil
		case "failed":
			return zero, fmt.Errorf("job %s failed: %s", id, job.Error)
		}
		if time.Duration(now-start) > auditTimeout {
			return zero, fmt.Errorf("job %s: not done after %v", id, auditTimeout)
		}
		time.Sleep(auditPollEvery)
	}
}

// submit posts one job request and returns the job id.
func (s *auditMix) submit(body []byte) (string, error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(out))
	}
	var job jobView
	if err := json.Unmarshal(out, &job); err != nil {
		return "", fmt.Errorf("decoding submit response: %w", err)
	}
	if job.ID == "" {
		return "", errors.New("submit response carries no job id")
	}
	return job.ID, nil
}

func (s *auditMix) spanMetrics(r *recorder, m map[string]float64) {
	m["auditd.submit_ms"] = median(r.spanMs("auditd.submit"))
	m["auditd.fetch_ms"] = median(r.spanMs("auditd.fetch"))
	var wait, kb []float64
	for i, done := range r.done {
		if done {
			wait = append(wait, float64(s.queueWait[i])/1e6)
			kb = append(kb, float64(s.respBytes[i])/1024)
		}
	}
	m["auditd.queue_wait_ms"] = median(wait)
	m["auditd.response_kb"] = median(kb)
	after, err := s.stats()
	if err != nil {
		r.fail(0, err)
		return
	}
	reportHits := after.ReportHits - s.before.ReportHits
	reportMisses := after.ReportMisses - s.before.ReportMisses
	funcHits := after.FuncHits - s.before.FuncHits
	funcMisses := after.FuncMisses - s.before.FuncMisses
	m["staticlint.cache.report_hit_ratio"] = ratio(reportHits, reportHits+reportMisses)
	m["staticlint.cache.func_hit_ratio"] = ratio(funcHits, funcHits+funcMisses)
}

// counterMetrics has nothing to add: the audit service simulates no
// core, so every simulated counter stays 0.
func (s *auditMix) counterMetrics(map[string]float64) {}
