// Command uopcache runs any of the paper's experiments by id and
// prints its data as text.
//
// Usage:
//
//	uopcache -list
//	uopcache -exp fig3a [-workers 8]
//	uopcache -exp all
//
// Each experiment has one configuration, the one its golden output
// under internal/experiments/testdata pins; -workers changes only the
// wall time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deaduops/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uopcache", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or \"all\"")
		list    = fs.Bool("list", false, "list experiment ids")
		workers = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: uopcache -exp <id> | -list")
		return 2
	}

	opts := experiments.Options{Workers: *workers}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		fn, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
			return 2
		}
		out, err := fn(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(stdout, out.Render())
	}
	return 0
}
