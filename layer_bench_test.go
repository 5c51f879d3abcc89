// Layer benchmarks: each times one layer of the simulator or the
// analyzer on a fixed input and reports a domain metric next to Go's
// timing. SimulatorThroughput and its Parallel form time the cycle
// loop on a µop-cache-resident tiger. Predict, ProbeModel and
// CoreConstruction time what a difftest point pays outside the cycle
// loop: the analyzer's whole prediction (Harness.Predict), the
// receiver model's protocol replay within it (staticlint.ProbeModel),
// and building the core a point measures on (cpu.NewWith). All three
// report allocations; the last two should not grow with the
// protocol's traversal counts or the cache hierarchy's set counts.
//
//	go test -run '^$' -bench . -benchmem .
package deaduops_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
	"deaduops/internal/staticlint/difftest"
	"deaduops/internal/uopcache"
)

// BenchmarkProbeModel prices one divergence finding per iteration: a
// receiver over four sets and a victim whose taken direction holds
// three single-line regions in two of them, under the default protocol
// (160 priming traversals, 100 victim runs, 5 probe traversals).
func BenchmarkProbeModel(b *testing.B) {
	cfg := staticlint.DefaultConfig()
	probe := []int{6, 14, 22, 30}
	vspec := codegen.ProbeChain(0x100000, []int{14, 30}, 3, "vic")
	taken := uopcache.FootprintResult{Sets: map[int]int{}}
	for _, s := range vspec.Sets {
		for w := 0; w < vspec.Ways; w++ {
			taken.Regions = append(taken.Regions, uopcache.RegionFootprint{
				Region: vspec.RegionAddr(s, w), Set: s, Ways: 1, Cacheable: true,
			})
		}
		taken.Sets[s] = vspec.Ways
	}
	fall := uopcache.FootprintResult{Sets: map[int]int{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := staticlint.ProbeModel(cfg, taken, fall, probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict runs the analyzer half of a difftest point per
// iteration: Harness.Predict — lint, footprints, receiver model and
// both whole-run path costs — over a fixed set of Skylake victims,
// seeds 1–16, taken in turn.
func BenchmarkPredict(b *testing.B) {
	h := difftest.NewHarness(profile.Default())
	var victims []*difftest.Victim
	for seed := uint64(1); seed <= 16; seed++ {
		v, err := h.Generate(seed)
		if err != nil {
			b.Fatal(err)
		}
		victims = append(victims, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Predict(victims[i%len(victims)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreConstruction builds the difftest harness's core per
// iteration on one reused arena, as a sweep worker does. profile=default
// builds the default profile's core every time; profile=all cycles
// through every registered profile, as difftest-sweep does, so no
// same-configuration shortcut can flatter it.
func BenchmarkCoreConstruction(b *testing.B) {
	var all []cpu.Config
	for _, p := range profile.All() {
		all = append(all, difftest.NewHarness(p).CPUConfig())
	}
	for _, bc := range []struct {
		name string
		cfgs []cpu.Config
	}{
		{"profile=default", []cpu.Config{difftest.NewHarness(profile.Default()).CPUConfig()}},
		{"profile=all", all},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := new(cpu.Arena)
			for _, cfg := range bc.cfgs {
				cpu.NewWith(cfg, a) // size the arena
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu.NewWith(bc.cfgs[i%len(bc.cfgs)], a)
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per second of host time on a µop-cache-resident loop, plus
// heap allocations per simulated cycle (pinned near zero by the
// steady-state pools; see internal/cpu's TestSteadyStateRunAllocs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	tiger, err := attack.Build(attack.Tiger(0x40000, attack.DefaultGeometry(), "bench"))
	if err != nil {
		b.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(tiger.Prog)
	if _, err := tiger.Run(c, 10); err != nil {
		b.Fatal(err)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		n, err := tiger.Run(c, 100)
		if err != nil {
			b.Fatal(err)
		}
		cycles += n
	}
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	if elapsed > 0 {
		b.ReportMetric(float64(cycles)/elapsed.Seconds(), "sim-cycles/s")
	}
	if cycles > 0 {
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(cycles), "allocs/sim-cycle")
	}
}

// BenchmarkSimulatorThroughputParallel runs one independent simulated
// core per worker goroutine — the parallel-sweep workload shape — and
// reports aggregate simulated cycles per second across all workers.
func BenchmarkSimulatorThroughputParallel(b *testing.B) {
	spec := attack.Tiger(0x40000, attack.DefaultGeometry(), "bench")
	var cycles atomic.Uint64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		tiger, err := attack.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		c := cpu.New(cpu.Intel())
		c.LoadProgram(tiger.Prog)
		if _, err := tiger.Run(c, 10); err != nil {
			b.Fatal(err)
		}
		var local uint64
		for pb.Next() {
			n, err := tiger.Run(c, 100)
			if err != nil {
				b.Fatal(err)
			}
			local += n
		}
		cycles.Add(local)
	})
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(cycles.Load())/elapsed.Seconds(), "sim-cycles/s")
	}
}
