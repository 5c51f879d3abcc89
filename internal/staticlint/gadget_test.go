package staticlint

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/isa"
	"deaduops/internal/ref"
)

// countGadgets tallies hits per class — the paper's §VI-A census.
func countGadgets(hits []GadgetHit) map[GadgetKind]int {
	n := map[GadgetKind]int{}
	for _, h := range hits {
		n[h.Kind]++
	}
	return n
}

// TestScanGadgetsTaint runs the transient-window scan past one bounds
// check (cmp r1, 100; jae out) over small bodies. uop and v1 state
// whether each class must be found or must be absent; a required class
// must name the body's first instruction — the guarded load — as its
// source, even when the taint travels through a resolved memory cell.
func TestScanGadgetsTaint(t *testing.T) {
	cases := []struct {
		name    string
		body    func(b *asm.Builder)
		uop, v1 bool
	}{
		{"spectre-v1-double-load", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000)
			b.Shli(isa.R2, 6)
			b.Loadb(isa.R3, isa.R2, 0x8000) // tainted address: double load
		}, false, true},
		{"indirect-branch-sink", func(b *asm.Builder) {
			b.Load(isa.R2, isa.R1, 0x2000)
			b.Jmpi(isa.R2) // tainted indirect target
		}, true, false},
		{"no-dependence", func(b *asm.Builder) {
			b.Load(isa.R2, isa.R1, 0x2000) // guarded load…
			b.Movi(isa.R3, 1)              // …but nothing depends on it
			b.Cmpi(isa.R3, 0)
			b.Jcc(isa.NE, "out")
		}, false, false},
		{"movi-kills-taint", func(b *asm.Builder) {
			b.Load(isa.R2, isa.R1, 0x2000)
			b.Movi(isa.R2, 5) // overwrite kills the taint
			b.Cmpi(isa.R2, 0)
			b.Jcc(isa.NE, "out")
		}, false, false},
		// xor-self is the zeroing idiom: its result is the constant 0
		// whatever the tainted operand held, so a branch on it leaks
		// nothing.
		{"xor-self-kills-taint", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000)
			b.Xor(isa.R2, isa.R2) // r2 = 0: the load's definition dies here
			b.Cmpi(isa.R2, 0)
			b.Jcc(isa.NE, "out")
		}, false, false},
		{"sub-self-kills-taint", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000)
			b.Sub(isa.R2, isa.R2) // r2 = 0
			b.Shli(isa.R2, 6)
			b.Loadb(isa.R3, isa.R2, 0x8000) // address is the constant 0x8000
		}, false, false},
		// RDTSC overwrites its destination with the cycle counter.
		{"rdtsc-kills-taint", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000)
			b.Rdtsc(isa.R2)
			b.Cmpi(isa.R2, 0)
			b.Jcc(isa.NE, "out")
		}, false, false},
		{"taint-through-alu", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000)
			b.Mov(isa.R3, isa.R2)
			b.And(isa.R4, isa.R3) // reg-form ALU propagates
			b.Cmpi(isa.R4, 0)
			b.Jcc(isa.NE, "out")
		}, true, false},
		// A guarded load spilled to a resolved address and reloaded keeps
		// its original source attribution.
		{"taint-through-resolved-memory", func(b *asm.Builder) {
			b.Loadb(isa.R2, isa.R1, 0x2000) // the guarded load
			b.Movi(isa.R3, 0x5000)
			b.Store(isa.R3, 0, isa.R2) // spill to [0x5000]
			b.Movi(isa.R2, 0)          // kill the register copy
			b.Load(isa.R4, isa.R3, 0)  // reload from [0x5000]
			b.Cmpi(isa.R4, 0)
			b.Jcc(isa.NE, "out")
		}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.New(0x1000)
			b.Cmpi(isa.R1, 100)
			b.Jcc(isa.AE, "out") // the bypassable guard
			load := b.PC()
			tc.body(b)
			b.Label("out")
			b.Halt()
			hits := ScanGadgets(b.MustBuild(), DefaultConfig())
			for kind, want := range map[GadgetKind]bool{GadgetUopCache: tc.uop, GadgetSpectreV1: tc.v1} {
				named := false
				for _, h := range hits {
					named = named || (h.Kind == kind && h.Load == load)
				}
				if got := countGadgets(hits)[kind] > 0; got != want || want && !named {
					t.Errorf("%s gadget: found %v (sourced at guarded load %#x: %v), want %v; hits %v",
						kind, got, load, named, want, hits)
				}
			}
		})
	}
}

// TestGadgetCensusOnIdiomaticCorpus is an in-repo analog of the paper's
// LGTM census: a corpus of idiomatic bounds-checked library routines.
// The µop-cache gadget class (guarded load → dependent branch) is
// structurally easier to satisfy than the classic double-load, so it
// dominates — the paper counts 100 vs 19 in torvalds/linux.
func TestGadgetCensusOnIdiomaticCorpus(t *testing.T) {
	n := countGadgets(ScanGadgets(buildIdiomaticCorpus(), DefaultConfig()))
	uop, v1 := n[GadgetUopCache], n[GadgetSpectreV1]
	t.Logf("corpus census: µop-cache %d, spectre-v1 %d", uop, v1)
	if uop <= v1 {
		t.Errorf("census inverted: uop-cache %d ≤ spectre-v1 %d", uop, v1)
	}
	if uop < 4 || v1 < 1 {
		t.Errorf("corpus counts too low: µop-cache %d, spectre-v1 %d", uop, v1)
	}
}

// buildIdiomaticCorpus assembles routines mirroring the kernel idioms
// the paper's census finds: tag parsers, flag checks, table walks.
func buildIdiomaticCorpus() *asm.Program {
	b := asm.New(0x10000)
	routine := func(name, out string, body func()) {
		b.Align(64)
		b.Label(name)
		b.Cmpi(isa.R1, 256)
		b.Jcc(isa.AE, out)
		body()
		b.Label(out)
		b.Ret()
	}
	// Tag parser: load byte, mask, branch on tag (µop-cache class).
	routine("parse_tag", "parse_out", func() {
		b.Loadb(isa.R2, isa.R1, 0x2000)
		b.Andi(isa.R2, 0x80)
		b.Cmpi(isa.R2, 0)
		b.Jcc(isa.NE, "parse_out")
	})
	// Flag check: load word, test bit, branch (µop-cache class).
	routine("check_flags", "flags_out", func() {
		b.Load(isa.R3, isa.R1, 0x3000)
		b.Testi(isa.R3, 4)
		b.Jcc(isa.EQ, "flags_out")
	})
	// State machine step: load state, compare, branch (µop-cache).
	routine("fsm_step", "fsm_out", func() {
		b.Loadb(isa.R4, isa.R1, 0x4000)
		b.Cmpi(isa.R4, 7)
		b.Jcc(isa.EQ, "fsm_out")
	})
	// Handler dispatch: load index, indirect jump (µop-cache).
	routine("dispatch", "disp_out", func() {
		b.Load(isa.R5, isa.R1, 0x5000)
		b.Jmpi(isa.R5)
	})
	// Length-prefixed copy setup: load length, branch (µop-cache).
	routine("copy_len", "copy_out", func() {
		b.Loadb(isa.R6, isa.R1, 0x6000)
		b.Cmpi(isa.R6, 64)
		b.Jcc(isa.GT, "copy_out")
	})
	// Classic double-load table walk (spectre-v1 class; its value is
	// consumed arithmetically, not by a branch).
	routine("table_walk", "walk_out", func() {
		b.Loadb(isa.R7, isa.R1, 0x7000)
		b.Shli(isa.R7, 6)
		b.Loadb(isa.R8, isa.R7, 0x8000)
		b.Add(isa.R9, isa.R8)
	})
	// Benign: guarded load consumed by a store only (no gadget).
	routine("benign_copy", "benign_out", func() {
		b.Loadb(isa.R10, isa.R1, 0x9000)
		b.Storeb(isa.R2, 0xA000, isa.R10)
	})
	return b.MustBuild()
}

// TestScanGadgetsRandomProgramsSmoke scans random programs: they must
// not panic; gadget density in unstructured code is incidental.
func TestScanGadgetsRandomProgramsSmoke(t *testing.T) {
	cfg := ref.DefaultGenConfig()
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := ref.Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ScanGadgets(p, DefaultConfig())
	}
}
