// Command uopmap shows how generated attack code maps into the
// micro-op cache: per-region set indices, line counts under the
// placement rules, and the resulting set occupancy — the view an
// attacker needs when crafting tigers and zebras for a new target.
//
// Usage:
//
//	uopmap -preset tiger|zebra|fast
//	uopmap -preset tiger -sets 8 -ways 6 -first 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/decode"
	"deaduops/internal/uopcache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uopmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset = fs.String("preset", "tiger", "code preset: tiger | zebra | fast")
		nsets  = fs.Int("sets", 8, "sets occupied")
		nways  = fs.Int("ways", 6, "ways per set")
		first  = fs.Int("first", 0, "first set of the stripe")
		base   = fs.Uint64("base", 0x40000, "code base address (1024-aligned)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g := attack.Geometry{NSets: *nsets, NWays: *nways, FirstSet: *first}
	var spec *codegen.ChainSpec
	switch *preset {
	case "tiger":
		spec = attack.Tiger(*base, g, "map")
	case "zebra":
		spec = attack.Zebra(*base, g, "map")
	case "fast":
		spec = attack.FastTiger(*base, g, "map")
	default:
		fmt.Fprintf(stderr, "unknown preset %q\n", *preset)
		return 2
	}

	routine, err := attack.Build(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ucfg := uopcache.Skylake()
	dcfg := decode.Skylake()
	fmt.Fprintf(stdout, "# %s: %d sets × %d ways, base %#x\n", *preset, *nsets, *nways, *base)
	fmt.Fprintf(stdout, "# µop cache: %d sets × %d ways × %d slots\n\n",
		ucfg.Sets, ucfg.Ways, ucfg.SlotsPerLine)

	occupancy := map[int]int{}
	fmt.Fprintf(stdout, "%-12s %-5s %-6s %-6s %-6s %s\n",
		"region", "set", "insts", "µops", "lines", "cacheable")
	for _, set := range spec.Sets {
		for w := 0; w < spec.Ways; w++ {
			addr := spec.RegionAddr(set, w)
			insts := uopcache.SegmentRanges(ucfg, routine.Prog,
				[]uopcache.Range{{Start: addr, End: addr + ucfg.RegionSize()}})[0].Insts
			plan := decode.PlanRegion(dcfg, insts)
			tr := uopcache.BuildTrace(ucfg, addr, 0, plan.Macros)
			state := "yes"
			if !tr.Cacheable {
				state = "NO: " + tr.Reason
			} else {
				occupancy[set] += len(tr.Lines)
			}
			fmt.Fprintf(stdout, "%#-12x %-5d %-6d %-6d %-6d %s\n",
				addr, set, len(insts), plan.TotalUops(), len(tr.Lines), state)
		}
	}

	fmt.Fprintf(stdout, "\n# set occupancy (lines of %d ways)\n", ucfg.Ways)
	for s := 0; s < ucfg.Sets; s++ {
		if n, ok := occupancy[s]; ok {
			bar := ""
			for i := 0; i < n; i++ {
				bar += "█"
			}
			fmt.Fprintf(stdout, "set %2d: %s (%d)\n", s, bar, n)
		}
	}
	return 0
}
