// Command uoplintd is the long-lived leakage-audit service: the
// static analyzer behind cmd/uoplint exposed as an HTTP/JSON daemon
// with a bounded job queue and an incremental per-function summary
// cache, so re-auditing a corpus after an edit re-analyzes only the
// changed functions and their call-graph dependents.
//
// Endpoints:
//
//	POST /v1/jobs       submit an audit (body mirrors the uoplint flags)
//	GET  /v1/jobs/{id}  job status and, when done, the reports
//	GET  /v1/stats      cache hit/miss counters, havoc rate, queue depth
//	GET  /healthz       liveness
//
// A full queue answers 429 with Retry-After. Usage:
//
//	uoplintd -addr 127.0.0.1:8077 -workers 4 -queue 64
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"deaduops/internal/auditd"
)

// A client gets readHeaderTimeout to send a request's headers and
// idleTimeout between requests on a kept-alive connection; after
// either, the server closes the connection, so a stalled client cannot
// hold one forever. Job bodies are small and read by the handler under
// a size cap, so no whole-request timeout is set.
const (
	readHeaderTimeout = 3 * time.Second
	idleTimeout       = 60 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uoplintd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8077", "listen address")
		workers    = fs.Int("workers", 0, "concurrent audit jobs (0 = GOMAXPROCS)")
		queueCap   = fs.Int("queue", 64, "pending-job queue bound (full queue answers 429)")
		jobWorkers = fs.Int("job-workers", 0, "per-job lint workers (0 = GOMAXPROCS)")
		maxJobs    = fs.Int("max-jobs", 1024, "retained job results (oldest forgotten first)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	srv, err := auditd.New(auditd.Config{
		Workers:    *workers,
		QueueCap:   *queueCap,
		JobWorkers: *jobWorkers,
		MaxJobs:    *maxJobs,
	})
	if err != nil {
		fmt.Fprintln(stderr, "uoplintd:", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "uoplintd:", err)
		return 1
	}
	// The resolved address (not the flag) is printed so ":0" users —
	// tests, CI — can parse the chosen port.
	fmt.Fprintf(stdout, "uoplintd: listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	if err := hs.Serve(ln); err != nil {
		fmt.Fprintln(stderr, "uoplintd:", err)
		return 1
	}
	return 0
}
