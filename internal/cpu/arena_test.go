package cpu

import (
	"reflect"
	"runtime"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/mem"
	"deaduops/internal/profile"
)

// arenaDirtyProg leaves state in every structure an arena recycles: a
// strided load/store loop fills 256 distinct sets at every cache level
// (and dirties guest pages), its back edge trains the direction
// predictor, and a direct and an indirect call train the RSB and the
// indirect-target predictor.
func arenaDirtyProg() *asm.Program {
	b := asm.New(0x1000)
	b.Movi(isa.R1, 0x10_0000)
	b.Movi(isa.R2, 256)
	b.Label("loop")
	b.Load(isa.R3, isa.R1, 0)
	b.Store(isa.R1, 8, isa.R2)
	b.Addi(isa.R1, 4096+64)
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Label("back")
	b.Jcc(isa.NE, "loop")
	b.Call("fn")
	b.Movi(isa.R4, 0x1400)
	b.Calli(isa.R4)
	b.Halt()
	b.Org(0x1400)
	b.Label("fn")
	b.Addi(isa.R5, 1)
	b.Ret()
	return b.MustBuild()
}

// TestArenaRecycledCoreMatchesFresh pins arena recycling against
// construction. For every profile, a core dirties the arena's caches
// and predictors; a core of the next profile built on the same arena
// must then run program P into exactly the checkpoint a new core
// reaches, and its inclusion hooks must reach its own µop cache rather
// than the previous core's.
func TestArenaRecycledCoreMatchesFresh(t *testing.T) {
	dirty, p := arenaDirtyProg(), checkpointProg()
	all := profile.All()
	for i, prev := range all {
		next := all[(i+1)%len(all)]
		t.Run(prev.Name+"->"+next.Name, func(t *testing.T) {
			a := new(Arena)
			old := NewWith(FromProfile(prev), a)
			old.LoadProgram(dirty)
			if res := old.Run(0, dirty.Entry, testMaxCycles); res.TimedOut {
				t.Fatal("dirtying run timed out")
			}
			if n := old.Hierarchy().LLC().Stats().Misses; n < 256 {
				t.Fatalf("dirtying run filled %d LLC lines, want at least 256", n)
			}
			if !old.BPU(0).PredictDirection(dirty.MustLabel("back")) {
				t.Fatal("dirtying run left the back edge predicted not taken")
			}

			cfg := FromProfile(next)
			recycled, fresh := NewWith(cfg, a), New(cfg)
			if recycled.Hierarchy() != old.Hierarchy() || recycled.BPU(0) != old.BPU(0) {
				t.Fatal("arena rebuilt the hierarchy or predictors")
			}
			var got, want Checkpoint
			for _, c := range []*CPU{recycled, fresh} {
				c.LoadProgram(p)
				for r := 0; r < 2; r++ {
					if res := c.Run(0, p.Entry, testMaxCycles); res.TimedOut {
						t.Fatal("run of P timed out")
					}
				}
			}
			recycled.Checkpoint(&got)
			fresh.Checkpoint(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("recycled core's checkpoint differs from a new core's after the same runs")
			}

			if cfg.UopCache.Disabled {
				return
			}
			loop := p.MustLabel("loop")
			uc := recycled.UopCache()
			if !uc.Present(0, loop) {
				t.Fatalf("loop at %#x not in the µop cache after two runs", loop)
			}
			if !recycled.Hierarchy().L1I().Invalidate(loop) {
				t.Fatalf("loop at %#x not in the L1I", loop)
			}
			if uc.Present(0, loop) {
				t.Error("L1I eviction on the recycled core left its µop-cache lines in place")
			}
		})
	}
}

// TestArenaWarmNewWithCost pins what a warm arena saves: building a
// core on it allocates under 64 KiB, because the hierarchy is reset,
// not rebuilt. A rebuilt 8192-set LLC alone is 3 MiB.
func TestArenaWarmNewWithCost(t *testing.T) {
	const maxBytes = 64 << 10
	cfg := Intel()
	a := new(Arena)
	NewWith(cfg, a)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	NewWith(cfg, a)
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= maxBytes {
		t.Errorf("warm NewWith allocates %d B with a %d-set LLC, want under %d", n, mem.LLCSets, maxBytes)
	}
}
