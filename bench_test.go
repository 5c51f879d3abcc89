// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs its experiment end-to-end on the
// simulated core and reports domain metrics (simulated cycles,
// bandwidth, error rates) alongside Go's timing.
//
//	go test -bench=. -benchmem
package deaduops_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deaduops/internal/attack"
	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/ecc"
	"deaduops/internal/experiments"
	"deaduops/internal/transient"
	"deaduops/internal/victim"
)

// benchOpts keeps benchmark iterations modest; the CLI runs larger
// sweeps.
var benchOpts = experiments.Options{Iterations: 30, Warmup: 10, Samples: 4}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aCacheSize regenerates Fig 3a (micro-op cache size).
func BenchmarkFig3aCacheSize(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3bAssociativity regenerates Fig 3b (associativity).
func BenchmarkFig3bAssociativity(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig4Placement regenerates Fig 4 (placement rules).
func BenchmarkFig4Placement(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5Replacement regenerates Fig 5 (replacement policy).
func BenchmarkFig5Replacement(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6SMTPartition regenerates Fig 6 (SMT partitioning, both
// sibling workloads).
func BenchmarkFig6SMTPartition(b *testing.B) {
	b.Run("pause", func(b *testing.B) { runExperiment(b, "fig6a") })
	b.Run("pointer-chase", func(b *testing.B) { runExperiment(b, "fig6b") })
}

// BenchmarkFig7PartitionMechanism regenerates Fig 7 (partition
// deconstruction).
func BenchmarkFig7PartitionMechanism(b *testing.B) {
	b.Run("set-probe", func(b *testing.B) { runExperiment(b, "fig7a") })
	b.Run("set-count", func(b *testing.B) { runExperiment(b, "fig7b") })
}

// BenchmarkFig8Striping regenerates Fig 8 (tiger/zebra striping).
func BenchmarkFig8Striping(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Tuning regenerates Fig 9 (channel parameter sweep).
func BenchmarkFig9Tuning(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Fences regenerates Fig 10 (fence comparison).
func BenchmarkFig10Fences(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable1Channels regenerates Table I (all four channels).
func BenchmarkTable1Channels(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2SpectreTrace regenerates Table II (Spectre trace
// comparison).
func BenchmarkTable2SpectreTrace(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkVariant1LeakByte measures the transient attack's per-byte
// cost.
func BenchmarkVariant1LeakByte(b *testing.B) {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewVariant1(c)
	if err != nil {
		b.Fatal(err)
	}
	v.WriteSecret([]byte{0x5A})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Leak(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariant2LFENCEBypass measures the LFENCE-bypassing leak.
func BenchmarkVariant2LFENCEBypass(b *testing.B) {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewVariant2(c, victim.WithLFENCE)
	if err != nil {
		b.Fatal(err)
	}
	if err := v.Calibrate(4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.WriteSecret(i & 1)
		if _, err := v.LeakBit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassicSpectreLeakByte is the Table II baseline's per-byte
// cost.
func BenchmarkClassicSpectreLeakByte(b *testing.B) {
	c := cpu.New(cpu.Intel())
	cl, err := transient.NewClassicSpectre(c)
	if err != nil {
		b.Fatal(err)
	}
	cl.WriteSecret([]byte{0x5A})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Leak(1); err != nil {
			b.Fatal(err)
		}
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
	if _, err := tiger.Run(c, 0, 10); err != nil {
		b.Fatal(err)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		n, err := tiger.Run(c, 0, 100)
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
		if _, err := tiger.Run(c, 0, 10); err != nil {
			b.Fatal(err)
		}
		var local uint64
		for pb.Next() {
			n, err := tiger.Run(c, 0, 100)
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

// BenchmarkRSCodec measures the Reed-Solomon encode+decode pipeline
// used for Table I's corrected bandwidth.
func BenchmarkRSCodec(b *testing.B) {
	codec, err := ecc.NewCodec(42)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := codec.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		enc[i%len(enc)] ^= 0xFF // one error per block of interest
		if _, err := codec.Decode(enc, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelMultiSymbol measures the jump-table optimization: a
// 4-ary symbol channel (2 bits per prime-send-probe round).
func BenchmarkChannelMultiSymbol(b *testing.B) {
	c := cpu.New(cpu.Intel())
	ch, err := channel.NewMultiSymbol(c, channel.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte{0xA5}
	b.ResetTimer()
	var last channel.Result
	for i := 0; i < b.N; i++ {
		_, res, err := ch.Transmit(payload)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BandwidthKbps(), "sim-Kbit/s")
	b.ReportMetric(100*last.ErrorRate(), "err-%")
}

// BenchmarkCapacityAcrossGenerations regenerates the capacity table
// (Skylake / Sunny Cove / Zen / Zen-2 knee sweep).
func BenchmarkCapacityAcrossGenerations(b *testing.B) { runExperiment(b, "capacity") }

// BenchmarkMitigationMatrix regenerates the §VIII mitigation table.
func BenchmarkMitigationMatrix(b *testing.B) { runExperiment(b, "mitigations") }

// BenchmarkInvisibleSpeculation regenerates the §VII defense matrix.
func BenchmarkInvisibleSpeculation(b *testing.B) { runExperiment(b, "invisispec") }

// BenchmarkNaturalGadget measures the §VI-A pci_vpd_find_tag-style
// attack's per-bit cost.
func BenchmarkNaturalGadget(b *testing.B) {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewNaturalGadget(c)
	if err != nil {
		b.Fatal(err)
	}
	v.WriteSecret([]byte{0x80})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.LeakTagBit(0); err != nil {
			b.Fatal(err)
		}
	}
}
