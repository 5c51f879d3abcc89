// Package parsweep runs embarrassingly parallel sweep points across a
// bounded worker pool. Every figure and table in internal/experiments
// is a list of independent measurements — each point builds its own
// CPU, BPU, and µop cache and shares nothing — so the only thing the
// pool has to guarantee is deterministic assembly: results come back
// in input order and the reported error is the one from the
// lowest-numbered failing point, regardless of scheduling.
//
// The pool is sized by Options.Workers (GOMAXPROCS when unset). A
// per-worker setup hook lets each worker build one reusable resource —
// in practice a cpu.Arena, so a 48-point sweep builds 8 guest-memory
// images, cache hierarchies and predictor pairs instead of 48.
package parsweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the typed value a pool re-raises when a worker
// goroutine panics: the original panic payload survives intact (so a
// recovering caller can inspect or re-throw the genuine value instead
// of a flattened string) and Stack carries the panicking worker's
// stack, captured at the recovery point — the frames the re-raise on
// the calling goroutine would otherwise destroy.
type PanicError struct {
	// Value is the worker's original panic payload, unmodified.
	Value any
	// Stack is the worker goroutine's stack at recovery
	// (runtime/debug.Stack), including the panicking frames.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parsweep: worker panicked: %v", e.Value)
}

// Unwrap exposes an error payload to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// wrapPanic normalizes a recovered value into a *PanicError, passing an
// already-wrapped panic (a nested pool) through untouched.
func wrapPanic(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Options tunes a parallel map.
type Options struct {
	// Workers bounds pool concurrency. Zero or negative selects
	// runtime.GOMAXPROCS(0). Workers == 1 runs the points sequentially
	// on the calling goroutine (no pool, trivially deterministic).
	Workers int
}

// EffectiveWorkers resolves Workers to the concrete pool size used for
// an n-point sweep: GOMAXPROCS when unset, and never more workers than
// points.
func (o Options) EffectiveWorkers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map evaluates fn(i) for every i in [0, n) and returns the results in
// input order. The error returned is the one produced by the
// lowest-numbered failing point; once any point fails, remaining
// unstarted points are skipped (best effort — in-flight points finish).
func Map[T any](opt Options, n int, fn func(i int) (T, error)) ([]T, error) {
	return mapWorker(opt, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapArena evaluates fn(s, i) for every i in [0, n), where s is a
// per-worker value built once by setup — typically a reusable
// simulator arena, so state is recycled across the points one worker
// executes without ever being shared between workers. Ordering and
// error semantics match Map.
func MapArena[S, T any](opt Options, n int, setup func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	return mapWorker(opt, n, setup, fn)
}

func mapWorker[S, T any](opt Options, n int, setup func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	workers := opt.EffectiveWorkers(n)
	if workers == 1 {
		s := setup()
		for i := 0; i < n; i++ {
			r, err := fn(s, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next    atomic.Int64 // next unclaimed point index
		failed  atomic.Bool  // set once any point errors (stops new claims)
		mu      sync.Mutex   // guards firstErrIdx/firstErr/panicked
		firstEI = n          // lowest failing index seen so far
		firstE  error
		panicV  any
		panhit  bool
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if i < firstEI {
			firstEI, firstE = i, err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					// Wrap at the recovery point, while the worker's stack
					// still exists: the re-raise below happens on the calling
					// goroutine, whose stack says nothing about the fault.
					failed.Store(true)
					mu.Lock()
					if !panhit {
						panhit, panicV = true, wrapPanic(p)
					}
					mu.Unlock()
				}
			}()
			s := setup()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(s, i)
				if err != nil {
					record(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if panhit {
		// Re-raise the typed wrapper, not a formatted string: the original
		// payload's type and the worker's stack stay recoverable.
		panic(panicV)
	}
	if firstE != nil {
		return nil, firstE
	}
	return results, nil
}
