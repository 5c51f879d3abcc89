package parsweep

import (
	"runtime"
	"sync"
)

// Pool is the server-side half of the package: where Map/MapArena run
// one finite sweep and return, Pool is a long-lived fixed-size worker
// pool draining a bounded job queue — the audit daemon's job
// dispatcher. The queue bound is the backpressure contract: a full
// queue rejects the submission immediately (the caller turns that into
// 429 + Retry-After) instead of growing memory without bound. Safe for
// concurrent submission. A panicking job is contained: the worker
// recovers and keeps serving. A caller that needs the panic recovers
// inside the job itself.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool

	workers int
}

// NewPool starts workers goroutines (GOMAXPROCS when <= 0) behind a
// queue holding at most queueCap pending jobs (minimum 1).
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueCap < 1 {
		queueCap = 1
	}
	p := &Pool{jobs: make(chan func(), queueCap), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				runJob(job)
			}
		}()
	}
	return p
}

// runJob runs job and swallows its panic, so the worker survives.
func runJob(job func()) {
	defer func() { _ = recover() }()
	job()
}

// TrySubmit enqueues job without blocking. It reports false when the
// queue is full or the pool is closed — the caller's signal to shed
// load.
func (p *Pool) TrySubmit(job func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- job:
		return true
	default:
		return false
	}
}

// QueueDepth returns the number of jobs waiting in the queue (not
// counting jobs already claimed by a worker).
func (p *Pool) QueueDepth() int { return len(p.jobs) }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops accepting new jobs, drains the queue, and joins the
// workers. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
