package experiments

import (
	"fmt"
	"strings"

	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/parsweep"
)

func init() {
	Registry["fig8"] = func(o Options) (Renderable, error) { return Fig8Striping(o) }
}

// OccupancyMap renders which micro-op cache sets each routine occupies
// (Fig 8's striped tiger/zebra picture) and verifies mutual exclusion.
type OccupancyMap struct {
	ID       string
	Title    string
	Sets     int
	Ways     int
	TigerOcc map[int]int // set → ways occupied by the tiger
	ZebraOcc map[int]int
	Overlap  []int // sets touched by both (must be empty)
}

// Render draws the striping as rows of set occupancy.
func (m *OccupancyMap) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", m.ID, m.Title)
	fmt.Fprintf(&sb, "# %d sets × %d ways; T = tiger line, Z = zebra line, . = empty\n", m.Sets, m.Ways)
	for set := 0; set < m.Sets; set++ {
		fmt.Fprintf(&sb, "set %2d: ", set)
		t, z := m.TigerOcc[set], m.ZebraOcc[set]
		for w := 0; w < m.Ways; w++ {
			switch {
			case w < t:
				sb.WriteByte('T')
			case w < t+z:
				sb.WriteByte('Z')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "overlapping sets: %v\n", m.Overlap)
	return sb.String()
}

// fig8Iters is how many traversals each Fig 8 routine runs before its
// occupancy is read back.
const fig8Iters = 10

// Fig8Striping reproduces Fig 8: a tiger and a zebra generated by the
// §IV framework occupy interleaved, mutually exclusive sets of the
// micro-op cache, each filling its configured ways and leaving the rest
// free.
func Fig8Striping(o Options) (*OccupancyMap, error) {
	g := attack.Geometry{NSets: 8, NWays: 4} // the figure's 4-way striping
	c := cpu.New(cpu.Intel())

	// The measurement itself shares one CPU between the two routines —
	// the striping only exists because they fill the same cache — so
	// the runs stay sequential; only the independent codegen fans out.
	built, err := parsweep.Map(o.pool(), 2, func(i int) (*attack.Routine, error) {
		if i == 0 {
			return attack.Build(attack.Tiger(0x40000, g, "tiger"))
		}
		return attack.Build(attack.Zebra(0x80000, g, "zebra"))
	})
	if err != nil {
		return nil, err
	}
	tiger, zebra := built[0], built[1]

	m := &OccupancyMap{
		ID:       "fig8",
		Title:    "Striped occupation of the micro-op cache by tiger and zebra",
		Sets:     c.Config().UopCache.Sets,
		Ways:     c.Config().UopCache.Ways,
		TigerOcc: map[int]int{},
		ZebraOcc: map[int]int{},
	}

	// Run each routine and read back the occupancy it created.
	chainSpan := uint64(g.NWays) * codegen.WayStride
	c.LoadProgram(tiger.Prog)
	if _, err := tiger.Run(c, fig8Iters); err != nil {
		return nil, err
	}
	tigerSets := occupancyBySets(c, 0x40000, 0x40000+chainSpan)
	c.LoadProgram(zebra.Prog)
	if _, err := zebra.Run(c, fig8Iters); err != nil {
		return nil, err
	}
	zebraSets := occupancyBySets(c, 0x80000, 0x80000+chainSpan)

	for set, n := range tigerSets {
		m.TigerOcc[set] = n
	}
	for set, n := range zebraSets {
		m.ZebraOcc[set] = n
		if _, both := tigerSets[set]; both {
			m.Overlap = append(m.Overlap, set)
		}
	}
	return m, nil
}

// occupancyBySets counts valid micro-op cache lines per set whose
// region falls inside [lo, hi) — the chain body, excluding the loop
// tail.
func occupancyBySets(c *cpu.CPU, lo, hi uint64) map[int]int {
	out := map[int]int{}
	for _, li := range c.UopCache().Snapshot() {
		if li.Region >= lo && li.Region < hi {
			out[li.Set]++
		}
	}
	return out
}
