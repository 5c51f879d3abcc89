// Package experiments regenerates every figure and table of the
// paper's evaluation on the simulated core. Each experiment function
// returns structured series/rows and can render itself as text, so the
// CLI tools and the tests share one implementation. The DESIGN.md
// experiment index maps each function to its paper artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of curves plus identifying metadata.
type Figure struct {
	ID     string // e.g. "fig3a"
	Title  string
	XAxis  string
	YAxis  string
	Series []Series
}

// Render returns a text rendering of the figure's data.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n# x: %s, y: %s\n", f.ID, f.Title, f.XAxis, f.YAxis)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "## %s\n", s.Label)
		for i := range s.X {
			fmt.Fprintf(&sb, "%g\t%g\n", s.X[i], s.Y[i])
		}
	}
	return sb.String()
}

// Grid is a 2-D heat map (Fig 5).
type Grid struct {
	ID    string
	Title string
	XAxis string
	YAxis string
	XVals []int
	YVals []int
	// Cell[yi][xi] is the measured value.
	Cell [][]float64
}

// Render returns a text heat map.
func (g *Grid) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n# rows: %s, cols: %s\n", g.ID, g.Title, g.YAxis, g.XAxis)
	fmt.Fprintf(&sb, "%6s", "")
	for _, x := range g.XVals {
		fmt.Fprintf(&sb, "%6d", x)
	}
	sb.WriteByte('\n')
	for yi, y := range g.YVals {
		fmt.Fprintf(&sb, "%6d", y)
		for xi := range g.XVals {
			fmt.Fprintf(&sb, "%6.0f", g.Cell[yi][xi])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table is a rows-and-columns artifact (Tables I and II).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render returns an aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Options tunes how an experiment runs, never what it outputs. Each
// experiment has one configuration (its loop counts and payload seed
// are constants beside it), the one its golden pins.
type Options struct {
	// Workers bounds the sweep worker pool. Zero selects GOMAXPROCS;
	// 1 forces sequential execution. Results are identical at every
	// worker count — each sweep point builds its own core and the pool
	// assembles results in input order.
	Workers int
}

// pool returns the parsweep options for this run.
func (o Options) pool() parsweep.Options { return parsweep.Options{Workers: o.Workers} }

// sweep evaluates n independent measurement points across the worker
// pool, giving each worker one reusable simulator arena. Results come
// back in point order, so a figure assembled from them is byte-
// identical at every worker count.
func sweep[T any](o Options, n int, fn func(a *cpu.Arena, i int) (T, error)) ([]T, error) {
	return parsweep.MapArena(o.pool(), n,
		func() *cpu.Arena { return new(cpu.Arena) }, fn)
}

// payloadSeed feeds the deterministic PRNG behind every experiment's
// secret payload (testPayload).
const payloadSeed = 0x5eed

// Renderable is anything an experiment can produce.
type Renderable interface{ Render() string }

// Registry maps experiment ids to runners.
var Registry = map[string]func(Options) (Renderable, error){}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
