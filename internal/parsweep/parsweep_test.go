package parsweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapPreservesOrder checks that results land at their input index
// no matter how the scheduler interleaves workers.
func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(Options{Workers: workers}, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapEmpty checks the degenerate sweep.
func TestMapEmpty(t *testing.T) {
	got, err := Map(Options{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: got %v, %v", got, err)
	}
}

// TestMapError checks that a failing point surfaces its error and that
// the sequential path reports the first (lowest-index) failure.
func TestMapError(t *testing.T) {
	sentinel := errors.New("point 3 broke")
	for _, workers := range []int{1, 4} {
		_, err := Map(Options{Workers: workers}, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("point %d broke", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		_ = sentinel
		if workers == 1 && err.Error() != "point 3 broke" {
			t.Fatalf("sequential: got error %q, want first failure", err)
		}
	}
}

// TestMapErrorStopsEarly checks the best-effort cancellation: once a
// point fails, unstarted points should (mostly) not run. With one
// worker and an early failure, nothing after the failing index runs.
func TestMapErrorStopsEarly(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(Options{Workers: 1}, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("boom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("sequential early stop: ran %d points, want 3", n)
	}
}

// TestMapArenaPerWorkerSetup checks that setup runs once per worker,
// never more than the pool size, and that state is never shared
// between concurrent points.
func TestMapArenaPerWorkerSetup(t *testing.T) {
	var setups atomic.Int64
	type arena struct{ scratch []int }
	const n = 200
	got, err := MapArena(Options{Workers: 4}, n,
		func() *arena {
			setups.Add(1)
			return &arena{scratch: make([]int, 8)}
		},
		func(a *arena, i int) (int, error) {
			// Exclusive use: stamp, yield, verify the stamp survived.
			a.scratch[0] = i
			runtime.Gosched()
			if a.scratch[0] != i {
				return 0, fmt.Errorf("arena shared between workers at point %d", i)
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	if s := setups.Load(); s < 1 || s > 4 {
		t.Fatalf("setup ran %d times, want 1..4", s)
	}
}

// TestMapWorkerPanicPropagates checks that a panicking point takes the
// whole map down rather than deadlocking or being swallowed.
func TestMapWorkerPanicPropagates(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		if s := fmt.Sprint(p); !strings.Contains(s, "kaboom") {
			t.Fatalf("panic %q does not mention original value", s)
		}
	}()
	_, _ = Map(Options{Workers: 4}, 16, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
}

// TestEffectiveWorkers pins the pool-sizing rules.
func TestEffectiveWorkers(t *testing.T) {
	if got := (Options{Workers: 8}).EffectiveWorkers(3); got != 3 {
		t.Fatalf("capped by points: got %d, want 3", got)
	}
	if got := (Options{Workers: 2}).EffectiveWorkers(100); got != 2 {
		t.Fatalf("capped by option: got %d, want 2", got)
	}
	if got := (Options{}).EffectiveWorkers(100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default: got %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: -3}).EffectiveWorkers(100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative: got %d, want GOMAXPROCS", got)
	}
}

// TestMapDeterministicAcrossWorkerCounts runs the same pure sweep at
// several pool sizes and requires byte-identical assembled results —
// the core determinism contract the experiments rely on.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		got, err := Map(Options{Workers: workers}, 64, func(i int) (string, error) {
			return fmt.Sprintf("point-%03d", i*7%64), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(got, "\n")
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d output differs from sequential", w)
		}
	}
}

// errPayload is a distinguishable panic payload type: the re-raise
// must preserve it intact, not flatten it into a string.
type errPayload struct{ code int }

// TestMapWorkerPanicPreservesValue checks that the re-raised panic is a
// *PanicError wrapping the worker's original payload by value and
// carrying the worker goroutine's stack — the frames that name the
// faulting function, which a plain re-panic on the caller's goroutine
// would have lost.
func TestMapWorkerPanicPreservesValue(t *testing.T) {
	original := errPayload{code: 42}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		pe, ok := p.(*PanicError)
		if !ok {
			t.Fatalf("re-raised panic is %T, want *PanicError", p)
		}
		got, ok := pe.Value.(errPayload)
		if !ok || got != original {
			t.Fatalf("payload = %#v (%T), want original %#v", pe.Value, pe.Value, original)
		}
		if !strings.Contains(string(pe.Stack), "explodingPoint") {
			t.Fatalf("captured stack does not name the faulting function:\n%s", pe.Stack)
		}
	}()
	_, _ = Map(Options{Workers: 4}, 16, func(i int) (int, error) {
		if i == 5 {
			explodingPoint(original)
		}
		return i, nil
	})
}

//go:noinline
func explodingPoint(v errPayload) { panic(v) }

// TestMapWorkerPanicUnwrapsError checks errors.As/Is reach an error
// payload through the wrapper.
func TestMapWorkerPanicUnwrapsError(t *testing.T) {
	sentinel := errors.New("worker exploded")
	defer func() {
		p := recover()
		pe, ok := p.(*PanicError)
		if !ok {
			t.Fatalf("re-raised panic is %T, want *PanicError", p)
		}
		if !errors.Is(pe, sentinel) {
			t.Fatalf("errors.Is(%v, sentinel) = false", pe)
		}
	}()
	_, _ = Map(Options{Workers: 2}, 4, func(i int) (int, error) {
		if i == 1 {
			panic(sentinel)
		}
		return i, nil
	})
}

// TestPoolRunsJobs checks basic dispatch: every submitted job runs
// exactly once and Close drains the queue before returning.
func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 64)
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if !p.TrySubmit(func() { ran.Add(1) }) {
			t.Fatalf("submission %d rejected with capacity to spare", i)
		}
	}
	p.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d jobs, want 50", got)
	}
}

// TestPoolBackpressure checks the bounded-queue contract: submissions
// past the queue capacity are rejected, not buffered.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 2)
	block := make(chan struct{})
	release := func() { close(block) }
	defer p.Close()
	defer release()
	if !p.TrySubmit(func() { <-block }) {
		t.Fatal("first submission rejected")
	}
	// The worker is now parked on the blocking job; fill the queue.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.TrySubmit(func() { <-block }) {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("queue of 2 accepted %d pending jobs", accepted)
	}
	if d := p.QueueDepth(); d == 0 {
		t.Fatal("queue depth 0 with pending jobs")
	}
	if p.TrySubmit(func() {}) {
		t.Fatal("full queue accepted another job")
	}
}

// TestPoolSurvivesJobPanic checks a panicking job is contained: the
// worker recovers and keeps serving later jobs.
func TestPoolSurvivesJobPanic(t *testing.T) {
	p := NewPool(1, 8)
	if !p.TrySubmit(func() { panic("job exploded") }) {
		t.Fatal("submission rejected")
	}
	done := make(chan struct{})
	if !p.TrySubmit(func() { close(done) }) {
		t.Fatal("follow-up submission rejected")
	}
	<-done
	p.Close()
}

// TestPoolClosedRejects checks submissions after Close are refused.
func TestPoolClosedRejects(t *testing.T) {
	p := NewPool(2, 4)
	p.Close()
	if p.TrySubmit(func() {}) {
		t.Fatal("closed pool accepted a job")
	}
}
