// Command bench is the repository's benchmark. It drives four
// closed-loop workloads through the public APIs of the simulator and
// the audit service, checks every op's simulated output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	bash bench/run.sh -workload channel-st -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 2 -out runs/base
//	bash bench/run.sh -compare runs/base runs/change
//	bash bench/run.sh -workload difftest-sweep -update-golden
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// system is one workload's system under test, built by its set-up.
type system interface {
	// run drives ops closed-loop until the recorder stops handing out
	// op indices.
	run(r *recorder)
	// spanMetrics adds the workload's metrics of a traced phase.
	spanMetrics(r *recorder, m map[string]float64)
	// counterMetrics adds the simulated counters and model accuracy of
	// a counter pass.
	counterMetrics(m map[string]float64)
	close()
}

// spanCheck pairs the spans that wrap one public function with that
// function's name in a CPU profile.
type spanCheck struct {
	fn    string
	spans []string
}

type workload struct {
	name string
	// workers is the number of goroutines generating load.
	workers int
	// golden is the number of ops the seed-1 golden file holds.
	golden int
	// countOps is the size of the untimed counter pass (0: none).
	countOps int
	setup    func(seed int64) (system, error)
	checks   []spanCheck
}

const (
	channelPkg  = "deaduops/internal/channel"
	difftestPkg = "deaduops/internal/staticlint/difftest"
)

var workloads = []*workload{
	{
		name: "channel-st", workers: 1, golden: 1024, countOps: 64, setup: setupChannelST,
		checks: []spanCheck{{channelPkg + ".(*SameAddressSpace).Transmit", []string{"channel.transmit"}}},
	},
	{
		name: "channel-smt", workers: 1, golden: 256, countOps: 16, setup: setupChannelSMT,
		checks: []spanCheck{{channelPkg + ".(*CrossSMT).Transmit", []string{"channel.transmit"}}},
	},
	{
		name: "difftest-sweep", workers: difftestWorkers, golden: 4096, countOps: 100, setup: setupDifftest,
		checks: []spanCheck{
			{difftestPkg + ".(*Harness).Generate", []string{"difftest.generate"}},
			{difftestPkg + ".(*Harness).Predict", []string{"difftest.predict"}},
			{difftestPkg + ".(*Harness).NewPointRunner", []string{"difftest.runner_build"}},
			{difftestPkg + ".(*PointRunner).Measure", []string{"difftest.measure_train", "difftest.measure_restore"}},
		},
	},
	// The audit spans time client calls that wait on the server's
	// goroutines, so no span wraps the function doing the work and the
	// profile cross-check has nothing to compare.
	{name: "audit-mix", workers: auditClients, golden: 2048, setup: setupAudit},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(names, ", "))
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// maxOps bounds each phase's op count (0: only the deadline).
	maxOps int
	// setups is how many times the system is built before measuring
	// (0: as moreSetups decides). setup_s is the median, and the last
	// system built is measured.
	setups    int
	goldenDir string
	// traceDir receives the traced phase's spans and CPU profile ("":
	// not written).
	traceDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is what -out keeps of one run, for -compare.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Samples    map[string]int `json:"samples"`
	// StolenShare is the share of the CPU time the run wanted that the
	// hypervisor gave to other guests; the result's times are corrected
	// for it.
	StolenShare float64 `json:"stolen_share"`
	Result      result  `json:"result"`
}

// runAll re-executes this binary once per workload, so each process's
// resident set is its own workload's.
func runAll(args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

func writeRecord(dir string, rec runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", rec.Workload, rec.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	if err := mainErr(os.Args[1:], log); err != nil {
		log("bench: %v", err)
		os.Exit(1)
	}
}

func mainErr(args []string, log func(string, ...any)) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: channel-st, channel-smt, difftest-sweep, audit-mix or all")
		seed      = fs.Int64("seed", 1, "input seed; seed 1 is checked against the golden files")
		seconds   = fs.Float64("seconds", 20, "length of each measured phase, seconds")
		trace     = fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
		out       = fs.String("out", "", "directory to add this run's record to, for -compare")
		traceDir  = fs.String("trace-dir", ".bench_build/trace", "directory for a traced run's spans (JSON lines) and CPU profile")
		goldenDir = fs.String("golden-dir", "bench/testdata", "directory of the seed-1 golden files")
		update    = fs.Bool("update-golden", false, "rewrite the golden file of the workload (or of all)")
		compare   = fs.Bool("compare", false, "compare the run records of two directories: -compare BASE CHANGE")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two directories of run records")
		}
		regressed, err := compareDirs(fs.Arg(0), fs.Arg(1), os.Stdout)
		if err != nil {
			return err
		}
		if regressed {
			return errors.New("a metric regressed")
		}
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *update {
		ws := workloads
		if *name != "all" {
			w, err := lookupWorkload(*name)
			if err != nil {
				return err
			}
			ws = []*workload{w}
		}
		for _, w := range ws {
			if err := updateGolden(w, *goldenDir, log); err != nil {
				return err
			}
		}
		return nil
	}
	if *name == "all" {
		var rest []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				rest = append(rest, "-"+f.Name, f.Value.String())
			}
		})
		return runAll(rest)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, goldenDir: *goldenDir}
	if o.trace {
		o.traceDir = *traceDir
	}
	rec, err := runWorkload(w, o, log)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeRecord(*out, *rec); err != nil {
			return err
		}
	}
	res := rec.Result
	for _, k := range sortedKeys(res.Metrics) {
		log("  %-36s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
