package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// traceSlice is how long a traced run measures one side before
// switching to the other. Alternating the untraced and the traced
// system in short slices exposes both to the same host speed, which on
// a shared machine drifts by tens of percent within minutes.
const traceSlice = time.Second

// run is one invocation of one workload.
type run struct {
	w      *workload
	o      options
	golden []string // seed 1 only
	log    func(string, ...any)
	rec    *runRecord
	total  time.Duration // length of each measured phase (0: op limit only)
}

// runWorkload runs one workload. Untraced, it reports the end-to-end
// metrics. Traced, it alternates slices of an untraced and a traced
// system (spans and a CPU profile on), runs the untimed counter pass,
// and reports the per-layer metrics.
func runWorkload(w *workload, o options, log func(string, ...any)) (*runRecord, error) {
	r := &run{
		w: w, o: o, log: log,
		total: time.Duration(o.seconds * float64(time.Second)),
		rec: &runRecord{
			Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Samples: map[string]int{},
			Result:  result{Metrics: map[string]metricValue{}},
		},
	}
	if o.seed == 1 {
		g, err := readGolden(goldenPath(o.goldenDir, w.name))
		if err != nil {
			return nil, fmt.Errorf("golden file: %w (regenerate with -update-golden)", err)
		}
		r.golden = g
	}

	// The host's CPU accounting before set-up, to correct the run's
	// times for CPU steal.
	ticks, err := readCPUTicks()
	if err != nil {
		return nil, err
	}

	// Build the system several times and measure the last one built.
	var setups []float64
	var sys system
	for len(setups) < o.setups || o.setups == 0 && moreSetups(setups) {
		if sys != nil {
			sys.close()
		}
		t := time.Now()
		s, err := r.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		sys = s
	}
	r.rec.Samples["setup_s"] = len(setups)

	if o.trace {
		err = r.layers(sys)
	} else {
		err = r.endToEnd(sys, median(setups), ticks)
	}
	if err != nil {
		return nil, err
	}
	res := &r.rec.Result
	res.Correct = res.Failed == 0
	return r.rec, nil
}

func (r *run) setup() (system, error) {
	sys, err := r.w.setup(r.o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	return sys, nil
}

// Set-up repetitions: a run builds its system at least minSetups
// times, and cheap set-ups are repeated until setupBudget of set-up
// time has passed or maxSetups were built, so the median is steady
// however short one set-up is.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = time.Second
)

// moreSetups reports whether a run that has timed the given set-ups
// (seconds) builds its system again.
func moreSetups(setups []float64) bool {
	var spent float64
	for _, s := range setups {
		spent += s
	}
	return len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget.Seconds()
}

// report sets the result's metrics from m, in the units defs give.
func (r *run) report(defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		r.rec.Result.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
}

// tally folds one phase's ops into the result: it checks each op's
// digest against the golden file and counts failures.
func (r *run) tally(p *recorder) {
	res := &r.rec.Result
	for i, done := range p.done {
		if !done {
			continue
		}
		res.Attempted++
		if i < len(r.golden) {
			if got := hex.EncodeToString(p.digest[i][:]); got != r.golden[i] {
				p.fail(i, fmt.Errorf("op %d: output digest %s, golden %s", i, got[:16], r.golden[i][:16]))
			}
		}
	}
	res.Failed += len(p.fails)
	for k, i := range sortedKeys(p.fails) {
		if k == 5 {
			r.log("... %d more failed ops", len(p.fails)-5)
			break
		}
		r.log("op %d failed: %s", i, p.fails[i])
	}
}

// endToEnd measures sys untraced for the phase length. Its times are
// corrected for the CPU steal between since (read before set-up) and
// the end of the phase.
func (r *run) endToEnd(sys system, setupS float64, since cpuTicks) error {
	// Start the phase from a collected heap, so every run's resident set
	// begins from the same state.
	runtime.GC()
	debug.FreeOSMemory()
	type readings struct {
		mbs []float64
		err error
	}
	stop, sampled := make(chan struct{}), make(chan readings)
	go func() {
		mbs, err := sampleRSS(stop)
		sampled <- readings{mbs, err}
	}()
	p := newRecorder(r.o.maxOps, false, false)
	p.slice(sys, r.total)
	ticks, err := readCPUTicks()
	close(stop)
	rss := <-sampled
	if err != nil {
		return err
	}
	if rss.err != nil {
		return rss.err
	}
	sys.close()
	r.tally(p)
	opsPerS, lat := p.figures()
	if lat.N == 0 {
		return fmt.Errorf("%s: no op completed", r.w.name)
	}
	stolen := stolenShare(since, ticks)
	r.rec.StolenShare = stolen
	r.rec.Samples["ops"], r.rec.Samples["rss_mb"] = lat.N, len(rss.mbs)
	r.log("%s seed %d: %d ops in %.2f s on %d CPUs (GOMAXPROCS %d), %d set-ups; %.1f%% of the CPU time stolen; uncorrected %.4g ops/s, p50 %.4g ms, p95 %.4g ms, set-up %.4g s",
		r.w.name, r.o.seed, lat.N, p.active.Seconds(), runtime.NumCPU(), runtime.GOMAXPROCS(0), r.rec.Samples["setup_s"],
		100*stolen, opsPerS, lat.Median, lat.P95, setupS)
	ran := 1 - stolen
	r.report(endToEnd, map[string]float64{
		"setup_s":    setupS * ran,
		"ops_per_s":  opsPerS / ran,
		"op_p50_ms":  lat.Median * ran,
		"op_p95_ms":  lat.P95 * ran,
		"rss_p95_mb": summarize(rss.mbs).P95,
	})
	return nil
}

// pending reports whether a phase has more to run.
func (r *run) pending(p *recorder) bool {
	if int(p.next.Load()) >= p.limit {
		return false
	}
	if r.total == 0 {
		return p.active == 0
	}
	return p.active < r.total
}

// nextSlice returns the length of a phase's next slice.
func (r *run) nextSlice(p *recorder) time.Duration {
	if r.total == 0 {
		return 0
	}
	return min(traceSlice, r.total-p.active)
}

// layers measures sys untraced and a second system traced, in
// alternating slices, then runs the counter pass on a third.
func (r *run) layers(sys system) error {
	tsys, err := r.setup()
	if err != nil {
		return err
	}
	since, err := readCPUTicks()
	if err != nil {
		return err
	}
	plain := newRecorder(r.o.maxOps, false, false)
	traced := newRecorder(r.o.maxOps, true, false)
	var (
		attr     attribution
		profiles [][]byte
		alloc    runtime.MemStats // the untraced slices' allocation totals
	)
	for r.pending(plain) || r.pending(traced) {
		if r.pending(plain) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			plain.slice(sys, r.nextSlice(plain))
			runtime.ReadMemStats(&after)
			alloc.TotalAlloc += after.TotalAlloc - before.TotalAlloc
			alloc.Mallocs += after.Mallocs - before.Mallocs
			alloc.NumGC += after.NumGC - before.NumGC
		}
		if r.pending(traced) {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			traced.slice(tsys, r.nextSlice(traced))
			pprof.StopCPUProfile()
			a, err := readProfileBytes(prof.Bytes())
			if err != nil {
				return err
			}
			attr.add(a)
			profiles = append(profiles, prof.Bytes())
		}
	}
	ticks, err := readCPUTicks()
	if err != nil {
		return err
	}
	m := map[string]float64{}
	tsys.spanMetrics(traced, m)
	sys.close()
	tsys.close()
	r.tally(plain)
	r.tally(traced)
	if n := traced.dropped.Load(); n > 0 {
		r.log("trace: %d spans dropped beyond the %d kept", n, maxSpans)
	}
	ops, tracedOps := len(plain.doneOps()), len(traced.doneOps())
	if ops == 0 || tracedOps == 0 {
		return fmt.Errorf("%s: no op completed", r.w.name)
	}
	secs := plain.active.Seconds()
	m["sim_cycles_per_s"] = float64(plain.cycles.Load()) / (secs * (1 - stolenShare(since, ticks)))
	m["runtime.alloc_bytes_per_op"] = float64(alloc.TotalAlloc) / float64(ops)
	m["runtime.mallocs_per_op"] = float64(alloc.Mallocs) / float64(ops)
	m["runtime.gc_cycles_per_op"] = float64(alloc.NumGC) / float64(ops)
	m["trace.overhead"] = 1 - (float64(tracedOps)/traced.active.Seconds())/(float64(ops)/secs)
	r.log("%s seed %d: %d untraced ops in %.2f s, %d traced ops in %.2f s, on %d CPUs (GOMAXPROCS %d)",
		r.w.name, r.o.seed, ops, secs, tracedOps, traced.active.Seconds(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	if r.w.countOps > 0 {
		if err := r.counterPass(m); err != nil {
			return err
		}
	}
	r.rec.Samples["profile_ms"] = int(attr.TotalNanos / 1e6)
	reportHostShares(attr, traced, m, r.log)
	decompose(r.w, traced, attr, m, r.log)
	m["error_rate"] = float64(r.rec.Result.Failed) / float64(r.rec.Result.Attempted)
	r.report(perLayer, m)
	return r.writeTrace(traced, profiles)
}

// counterPass builds a fresh system and runs its first ops untimed,
// reading the simulated counters.
func (r *run) counterPass(m map[string]float64) error {
	n := r.w.countOps
	if r.o.maxOps > 0 {
		n = min(n, r.o.maxOps)
	}
	sys, err := r.setup()
	if err != nil {
		return err
	}
	defer sys.close()
	p := newRecorder(n, false, true)
	p.slice(sys, 0)
	sys.counterMetrics(m)
	r.tally(p)
	return nil
}

// writeTrace writes the traced phase's spans and CPU profiles.
func (r *run) writeTrace(traced *recorder, profiles [][]byte) error {
	if r.o.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.o.traceDir, fmt.Sprintf("%s-seed%d", r.w.name, r.o.seed))
	if err := traced.writeSpans(base + ".jsonl"); err != nil {
		return err
	}
	for k, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-%02d.pprof", base, k), p, 0o644); err != nil {
			return err
		}
	}
	r.log("trace: spans in %s.jsonl, CPU profiles of the %d traced slices in %s-*.pprof", base, len(profiles), base)
	return nil
}

// updateGolden runs the workload's golden ops on seed 1 without a
// deadline and rewrites its golden file.
func updateGolden(w *workload, dir string, log func(string, ...any)) error {
	sys, err := w.setup(1)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p := newRecorder(w.golden, false, false)
	p.slice(sys, 0)
	sys.close()
	if len(p.fails) > 0 {
		i := sortedKeys(p.fails)[0]
		return fmt.Errorf("%s: op %d failed: %s", w.name, i, p.fails[i])
	}
	var b strings.Builder
	for i := range p.digest {
		b.WriteString(hex.EncodeToString(p.digest[i][:]))
		b.WriteByte('\n')
	}
	path := goldenPath(dir, w.name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	log("%s: wrote %d ops to %s", w.name, w.golden, path)
	return nil
}

func goldenPath(dir, name string) string {
	return filepath.Join(dir, name+".seed1.golden")
}

func readGolden(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Fields(string(b)), nil
}

// rssSampleEvery is how often the measured phase's resident set is read.
const rssSampleEvery = 5 * time.Millisecond

// sampleRSS reads the process's resident set (VmRSS) every
// rssSampleEvery until stop is closed, and returns the readings in MB.
func sampleRSS(stop <-chan struct{}) ([]float64, error) {
	t := time.NewTicker(rssSampleEvery)
	defer t.Stop()
	var mbs []float64
	for {
		mb, err := rssMB()
		if err != nil {
			return nil, err
		}
		mbs = append(mbs, mb)
		select {
		case <-stop:
			return mbs, nil
		case <-t.C:
		}
	}
}

// rssMB returns the process's resident set (VmRSS) in MB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmRSS not found in /proc/self/status")
}

// cpuTicks is the machine's CPU accounting from /proc/stat, summed over
// its CPUs: time spent running (busy) and, on a virtual machine, time
// the hypervisor ran something else while a virtual CPU wanted to run
// (steal). Both are in the kernel's clock ticks.
type cpuTicks struct{ busy, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseCPUTicks(string(b))
}

// parseCPUTicks reads the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ...
func parseCPUTicks(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line with a steal field: %q", line)
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		v[i] = n
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stolenShare returns the share of the CPU time the machine wanted
// between two readings that the hypervisor gave to other guests:
// steal / (steal + busy). The benchmark's wall times shrink by it.
//
// On a shared virtual machine, other guests take the CPUs for seconds
// to minutes at a time, which moves wall times by tens of percent
// between runs (README.md gives measurements). The kernel accounts
// steal independently of the program, and one factor scales every op
// of the run alike, so a change that slows some ops still shows in
// full.
func stolenShare(a, b cpuTicks) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal+busy == 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
