// Layer benchmarks for the two costs a difftest point pays outside the
// simulated cycle loop: the receiver model's protocol replay
// (staticlint.ProbeModel, run by Harness.Predict) and building the core
// a point measures on (cpu.NewWith). Both report allocations; neither
// should grow with the protocol's traversal counts or the cache
// hierarchy's set counts.
package deaduops_test

import (
	"testing"

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

// BenchmarkCoreConstruction builds the difftest harness's core per
// iteration, drawing guest memory from one reused arena as a sweep
// worker does.
func BenchmarkCoreConstruction(b *testing.B) {
	cfg := difftest.NewHarness(profile.Default()).CPUConfig()
	a := new(cpu.Arena)
	cpu.NewWith(cfg, a) // size the arena's memory image
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.NewWith(cfg, a)
	}
}
