package auditd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/victim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, body string) (id string, status int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.StatusCode
}

// wireJob mirrors Job with raw report bodies: Finding and ResolvedSite
// marshal addresses as hex strings and define no unmarshaler, so tests
// compare the wire bytes instead of round-tripping.
type wireJob struct {
	ID          string            `json:"id"`
	Status      string            `json:"status"`
	Error       string            `json:"error"`
	Reports     []json.RawMessage `json:"reports"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
}

// compactJSON normalizes indented wire JSON for byte comparison.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitJob(t *testing.T, ts *httptest.Server, id string) wireJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("job %s: status %d", id, resp.StatusCode)
		}
		var job wireJob
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch job.Status {
		case "done", "failed":
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobRoundTrip is the service's core contract: a default job
// audits the full corpus, its reports are byte-identical to what a
// direct staticlint run produces, and resubmitting the same job is a
// pure cache hit with byte-identical reports.
func TestJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, MaxJobs: 16})

	id, code := submitJob(t, ts, `{}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	job := waitJob(t, ts, id)
	if job.Status != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}

	// The reports must match a direct run over the same corpus.
	lay := victim.DefaultLayout()
	corpus, err := Corpus(lay)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Reports) != len(corpus) {
		t.Fatalf("job returned %d reports, corpus has %d programs", len(job.Reports), len(corpus))
	}
	cfg := staticlint.ConfigForProfile(profile.Default())
	for i, p := range corpus {
		r := staticlint.Lint(p.Prog, p.Spec, cfg)
		want, err := json.Marshal(ProgramReport{
			Program:     p.Name,
			Description: p.Description,
			Findings:    r.Findings,
			Resolved:    r.Resolved,
			Precision:   r.Precision,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := compactJSON(t, job.Reports[i]); !bytes.Equal(got, want) {
			t.Errorf("%s: service report diverges from direct lint:\n%s\nvs\n%s", p.Name, got, want)
		}
	}
	if job.CacheMisses != len(corpus) || job.CacheHits != 0 {
		t.Errorf("cold job: %d hits / %d misses, want 0 / %d", job.CacheHits, job.CacheMisses, len(corpus))
	}

	// Same job again: every program served from the report cache,
	// byte-identical findings.
	id2, _ := submitJob(t, ts, `{}`)
	job2 := waitJob(t, ts, id2)
	if job2.Status != "done" {
		t.Fatalf("warm job failed: %s", job2.Error)
	}
	if job2.CacheHits != len(corpus) || job2.CacheMisses != 0 {
		t.Errorf("warm job: %d hits / %d misses, want %d / 0", job2.CacheHits, job2.CacheMisses, len(corpus))
	}
	for i := range job.Reports {
		if !bytes.Equal(compactJSON(t, job.Reports[i]), compactJSON(t, job2.Reports[i])) {
			t.Errorf("report %d: warm bytes diverge from cold", i)
		}
	}
}

// TestJobRequestMirrorsCLI exercises the flag-shaped request fields:
// fixture filtering, random programs, profile tagging, checker
// selection, and the severity display filter.
func TestJobRequestMirrorsCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, MaxJobs: 16})

	id, _ := submitJob(t, ts, `{"fixture":"pci-vpd","random":2,"profile":"zen","checkers":["secret-dependent-branch"],"severity":"info"}`)
	job := waitJob(t, ts, id)
	if job.Status != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	// pci-vpd plus random-1, random-2.
	if len(job.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(job.Reports))
	}
	wantNames := []string{"pci-vpd", "random-1", "random-2"}
	for i, raw := range job.Reports {
		var r struct {
			Program  string `json:"program"`
			Profile  string `json:"profile"`
			Findings []struct {
				Checker string `json:"checker"`
			} `json:"findings"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Program != wantNames[i] {
			t.Errorf("report %d: program %q, want %q", i, r.Program, wantNames[i])
		}
		if r.Profile != "zen" {
			t.Errorf("%s: profile tag %q, want zen", r.Program, r.Profile)
		}
		for _, f := range r.Findings {
			if f.Checker != "secret-dependent-branch" {
				t.Errorf("%s: finding from unselected checker %s", r.Program, f.Checker)
			}
		}
	}
}

// invalidJobs are POST bodies the service must reject with 400, each
// with a phrase its error must contain. They also seed FuzzJobRequest.
var invalidJobs = []struct {
	name, body, wantErr string
}{
	{"bad json", `{`, "decoding"},
	{"unknown field", `{"fixtures":"x"}`, "unknown field"},
	{"trailing object", `{}{"random":-1}`, "after the JSON object"},
	{"bad profile", `{"profile":"pentium"}`, "profile"},
	{"bad severity", `{"severity":"catastrophic"}`, "severity"},
	{"bad checker", `{"checkers":["zzz-bogus","aaa-bogus"]}`, `unknown checkers "aaa-bogus", "zzz-bogus"`},
	{"unknown fixture", `{"fixture":"no-such"}`, `unknown fixture "no-such"`},
	{"negative random", `{"random":-3}`, "random"},
	{"random above cap", `{"random":1000000000}`, "random"},
	{"oversized body", `{"fixture":"` + strings.Repeat("x", maxRequestBytes) + `"}`, "too large"},
}

// TestJobValidation pins the 400 contract: a malformed request fails at
// submit time with a useful message, never as a failed job.
func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, MaxJobs: 4})
	for _, tc := range invalidJobs {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(out.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, out.Error, tc.wantErr)
		}
	}
}

// wedgeQueue occupies the one worker of s and fills its one queue
// slot, so the next submission is rejected. Closing the returned
// channel releases the worker.
func wedgeQueue(t *testing.T, s *Server) chan struct{} {
	t.Helper()
	release := make(chan struct{})
	if !s.pool.TrySubmit(func() { <-release }) {
		t.Fatal("could not wedge the worker")
	}
	// The worker may need a moment to claim the wedge job before the
	// queue slot frees up for the filler.
	deadline := time.Now().Add(5 * time.Second)
	for !s.pool.TrySubmit(func() {}) {
		if time.Now().After(deadline) {
			t.Fatal("could not fill the queue")
		}
		time.Sleep(time.Millisecond)
	}
	return release
}

// TestBackpressure429 pins the overflow contract: with the one worker
// wedged and the queue full, a submission is rejected immediately with
// 429 and a Retry-After hint — and succeeds once the queue drains.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, MaxJobs: 4})
	release := wedgeQueue(t, s)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit against a full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response carries no Retry-After header")
	}
	var st Stats
	statsGet(t, ts, &st)
	if st.Jobs.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Jobs.Rejected)
	}

	close(release)
	id, code := submitJob(t, ts, `{"fixture":"bounds-check"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d, want 202", code)
	}
	if job := waitJob(t, ts, id); job.Status != "done" {
		t.Fatalf("post-drain job failed: %s", job.Error)
	}
}

// TestRejectedSubmitKeepsResults: a 429 must not evict a retained
// result. With room for one job, the finished job stays queryable
// after a submission is turned away.
func TestRejectedSubmitKeepsResults(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, MaxJobs: 1})
	id, code := submitJob(t, ts, `{"fixture":"bounds-check"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if job := waitJob(t, ts, id); job.Status != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}

	release := wedgeQueue(t, s)
	defer close(release)
	if _, code := submitJob(t, ts, `{}`); code != http.StatusTooManyRequests {
		t.Fatalf("submit against a full queue: status %d, want 429", code)
	}
	if job := waitJob(t, ts, id); job.Status != "done" {
		t.Fatalf("finished job after a 429: status %q, want done", job.Status)
	}
}

// FuzzJobRequest drives arbitrary POST bodies through the submit path's
// decoder and planner: neither may panic, and every accepted plan must
// be one the service can run — random within its cap, a registered
// profile, and only known checkers.
func FuzzJobRequest(f *testing.F) {
	for _, tc := range invalidJobs {
		// Inputs over the size cap only exercise MaxBytesReader, and
		// minimizing one that turns up new coverage stalls the fuzzer.
		if len(tc.body) <= maxRequestBytes {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"fixture":"pci-vpd","random":2,"profile":"zen","checkers":["secret-dependent-branch"],"severity":"info"}`))
	corpus, err := Corpus(victim.DefaultLayout())
	if err != nil {
		f.Fatal(err)
	}
	known := map[string]bool{}
	for _, c := range staticlint.AllCheckers() {
		known[c.Name()] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req, err := decodeJobRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		p, err := NewPlan(req, corpus)
		if err != nil {
			return
		}
		if req.Random < 0 || req.Random > maxRandom {
			t.Errorf("accepted random %d outside [0, %d]", req.Random, maxRandom)
		}
		if _, err := profile.Get(p.Profile.Name); err != nil {
			t.Errorf("accepted an unregistered profile: %v", err)
		}
		for _, name := range req.Checkers {
			if !known[name] {
				t.Errorf("accepted unknown checker %q", name)
			}
		}
	})
}

func statsGet(t *testing.T, ts *httptest.Server, st *Stats) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAndHealth pins /v1/stats after a warm re-audit (cache hits
// visible, havoc aggregate populated) and the /healthz liveness probe.
func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, MaxJobs: 8})

	for i := 0; i < 2; i++ {
		id, _ := submitJob(t, ts, `{}`)
		if job := waitJob(t, ts, id); job.Status != "done" {
			t.Fatalf("job failed: %s", job.Error)
		}
	}
	var st Stats
	statsGet(t, ts, &st)
	if st.Cache.ReportHits == 0 || st.Cache.ReportMisses == 0 {
		t.Errorf("cache counters not populated: %+v", st.Cache)
	}
	if st.Jobs.Accepted != 2 || st.Jobs.Completed != 2 {
		t.Errorf("job counters %+v, want 2 accepted / 2 completed", st.Jobs)
	}
	if st.Workers != 1 {
		t.Errorf("workers %d, want 1", st.Workers)
	}
	// The corpus holds both a resolvable dispatch (fn-dispatch) and a
	// data-dependent one (indirect-call): the aggregate must show
	// indirect sites with a havoc rate strictly between 0 and 1.
	if st.IndirectSites < 2 || st.ResolvedSites < 1 {
		t.Errorf("precision aggregate %d indirect / %d resolved, want >= 2 / >= 1", st.IndirectSites, st.ResolvedSites)
	}
	if st.HavocRate <= 0 || st.HavocRate >= 1 {
		t.Errorf("havoc rate %v, want in (0, 1)", st.HavocRate)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestJobNotFound: unknown job IDs are 404, not empty 200s.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, MaxJobs: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestJobRetention: the job table is FIFO-bounded, so old results age
// out as 404 while recent ones stay queryable.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, MaxJobs: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		id, code := submitJob(t, ts, `{"fixture":"bounds-check"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		waitJob(t, ts, id)
		ids = append(ids, id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job %s: status %d, want 404", ids[0], resp.StatusCode)
	}
	if job := waitJob(t, ts, ids[2]); job.Status != "done" {
		t.Errorf("retained job %s lost: %+v", ids[2], job)
	}
}

// TestRunJobPanicContained: a panic inside an audit marks the job
// failed (with the fault in the error text) instead of killing the
// worker — the parsweep.PanicError round trip end to end.
func TestRunJobPanicContained(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueCap: 4, MaxJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A nil program makes the analysis panic on first touch.
	s.corpus = []Program{{Name: "boom", Prog: nil}}
	p, err := NewPlan(JobRequest{}, s.corpus)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: "job-x", Status: "queued"}
	s.jobs[job.ID] = job
	s.runJob(job, p)
	if job.Status != "failed" {
		t.Fatalf("job status %q, want failed", job.Status)
	}
	if !strings.Contains(job.Error, "panic") {
		t.Errorf("job error %q does not mention the panic", job.Error)
	}
	// The server survives: a real job on a fresh corpus still runs.
	corpus, err := Corpus(victim.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	s.corpus = corpus
	job2 := &Job{ID: "job-y", Status: "queued"}
	s.jobs[job2.ID] = job2
	s.runJob(job2, p)
	if job2.Status != "done" {
		t.Fatalf("post-panic job status %q (%s), want done", job2.Status, job2.Error)
	}
}
