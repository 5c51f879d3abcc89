// Package trace renders a per-cycle view of a run: retired macro-ops
// annotated with the front-end path that delivered them (micro-op
// cache, legacy decoders, microcode sequencer or loop stream detector)
// and squash events. It is a
// debugging aid for attack development — the micro-op cache's
// hit/miss rhythm is directly visible in the source column.
package trace

import (
	"fmt"
	"io"

	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

// Tracer attaches to a CPU's thread-0 backend and writes a text log.
type Tracer struct {
	w io.Writer
	c *cpu.CPU

	// Retired counts macro-ops seen; Squashes counts flushes.
	Retired  uint64
	Squashes uint64
}

// Attach installs the tracer on thread 0. Call Detach when done; only
// one tracer may be attached at a time.
func Attach(c *cpu.CPU, w io.Writer) *Tracer {
	t := &Tracer{w: w, c: c}
	be := c.Backend(0)
	be.OnRetire = t.onRetire
	be.OnSquash = t.onSquash
	return t
}

// Detach removes the tracer's hooks.
func (t *Tracer) Detach() {
	be := t.c.Backend(0)
	be.OnRetire = nil
	be.OnSquash = nil
}

func (t *Tracer) onRetire(cycle uint64, u isa.Uop) {
	// Only log once per macro-op (its last micro-op).
	if u.Index != u.Count-1 {
		return
	}
	t.Retired++
	if u.Fused {
		t.Retired++
	}
	fmt.Fprintf(t.w, "%8d  %-5v  %#8x  %v\n", cycle, u.Path, u.MacroAddr, u.Op)
}

func (t *Tracer) onSquash(cycle uint64, target uint64) {
	t.Squashes++
	fmt.Fprintf(t.w, "%8d  -----  squash → %#x\n", cycle, target)
}
