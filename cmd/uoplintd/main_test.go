package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestRunBadAddr(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "definitely-not-an-address:xyz"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "uoplintd:") {
		t.Fatalf("stderr lacks the error: %s", errb.String())
	}
}

// lineWriter captures stdout and signals when the banner line arrives,
// so the test can learn the ':0' port the daemon actually bound.
type lineWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	once sync.Once
	ch   chan string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, _ := w.buf.Write(p)
	if line := w.buf.String(); strings.Contains(line, "\n") {
		w.once.Do(func() { w.ch <- strings.TrimSpace(line) })
	}
	return n, nil
}

// startDaemon boots the daemon on an ephemeral port and returns the
// address it listens on. The serve goroutine is not joined — the
// server runs for the process lifetime, exactly like the real daemon.
func startDaemon(t *testing.T) string {
	t.Helper()
	w := &lineWriter{ch: make(chan string, 1)}
	go run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4"}, w, io.Discard)

	var banner string
	select {
	case banner = <-w.ch:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never printed its listen banner")
	}
	const prefix = "uoplintd: listening on "
	if !strings.HasPrefix(banner, prefix) {
		t.Fatalf("banner %q", banner)
	}
	return strings.TrimPrefix(banner, prefix)
}

// TestSlowHeadersClosed: a client that never finishes its request
// headers loses the connection once the header timeout passes.
func TestSlowHeadersClosed(t *testing.T) {
	conn, err := net.Dial("tcp", startDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server may answer 408 before it closes; either way the read
	// must end at EOF, not at the client's own deadline.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed %v after a half-sent request line: %v", time.Since(start), err)
	}
	if d := time.Since(start); d > readHeaderTimeout+time.Second {
		t.Errorf("connection closed after %v, want within the %v header timeout", d, readHeaderTimeout)
	}
}

// TestDaemonRoundTrip walks the full client path against a booted
// daemon: healthz, job submission, polling to done, stats.
func TestDaemonRoundTrip(t *testing.T) {
	base := "http://" + startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"fixture":"bounds-check"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, sub.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			Status  string            `json:"status"`
			Error   string            `json:"error"`
			Reports []json.RawMessage `json:"reports"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.Status == "done" {
			if len(job.Reports) != 1 {
				t.Fatalf("got %d reports, want 1", len(job.Reports))
			}
			break
		}
		if job.Status == "failed" {
			t.Fatalf("job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Cache struct {
			ReportMisses uint64 `json:"report_misses"`
		} `json:"cache"`
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.ReportMisses == 0 || st.Workers != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
