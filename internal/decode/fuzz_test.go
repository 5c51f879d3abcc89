package decode_test

import (
	"reflect"
	"testing"

	"deaduops/internal/decode"
	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/uopcache"
)

// fuzzInsts decodes a fuzz byte stream into the macro-ops of one
// region fetch: every byte pair picks an opcode flavour and a length,
// so arbitrary inputs map onto arbitrary (but well-formed) instruction
// sequences — the domain PlanRegion must handle totally.
func fuzzInsts(data []byte) []*isa.Inst {
	var insts []*isa.Inst
	addr := uint64(0x1000)
	for i := 0; i+1 < len(data) && len(insts) < 32; i += 2 {
		sel, ln := data[i], 1+int(data[i+1]%15)
		in := &isa.Inst{Addr: addr, Len: uint8(ln)}
		switch sel % 8 {
		case 0:
			in.Op = isa.NOP
		case 1:
			in.Op = isa.NOP
			in.LCP = true
		case 2:
			in.Op = isa.MOVI
			in.Dst = isa.R1
			in.Imm = int64(sel)
			in.HasImm = true
		case 3:
			in.Op = isa.MOVI
			in.Dst = isa.R2
			in.Imm = int64(sel)
			in.HasImm = true
			in.Imm64 = true // 64-bit immediate: two µop-cache slots
		case 4:
			in.Op = isa.CMP
			in.Dst = isa.R1
			in.Src = isa.R2
		case 5:
			in.Op = isa.JCC
			in.Cond = isa.NE
			in.Imm = int64(addr + 64)
		case 6:
			in.Op = isa.LOAD
			in.Dst = isa.R3
			in.Src = isa.R1
		case 7:
			in.Op = isa.MSROMOP
			in.UopCount = 5 + sel%64
		}
		insts = append(insts, in)
		addr += uint64(ln)
	}
	return insts
}

// FuzzPlanRegion holds the legacy-decode scheduler to its delivery
// invariants over arbitrary instruction sequences: the schedule is
// deterministic, the slot contents account for every micro-op exactly
// once, no slot beats the configured delivery widths, and the derived
// micro-op cache trace respects the placement rules.
func FuzzPlanRegion(f *testing.F) {
	f.Add([]byte{0x00, 0x0e, 0x01, 0x02})             // NOP, LCP NOP
	f.Add([]byte{0x04, 0x03, 0x05, 0x01})             // CMP, JCC (fusion pair)
	f.Add([]byte{0x07, 0x02, 0x00, 0x0e, 0x07, 0xff}) // MSROM heavy
	f.Add([]byte{0x03, 0x09, 0x03, 0x09, 0x03, 0x09}) // 64-bit immediates
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := fuzzInsts(data)
		for _, cfg := range []decode.Config{decode.Skylake(), profile.Zen().Decode} {
			plan := decode.PlanRegion(cfg, insts)
			if again := decode.PlanRegion(cfg, insts); !reflect.DeepEqual(plan, again) {
				t.Fatalf("PlanRegion not deterministic for %d insts", len(insts))
			}
			slotUops := 0
			for _, s := range plan.Slots {
				if len(s) > cfg.DecodeWidth && len(s) > decode.MSROMWidth {
					t.Fatalf("slot delivers %d µops, widths are %d/%d",
						len(s), cfg.DecodeWidth, decode.MSROMWidth)
				}
				slotUops += len(s)
			}
			if slotUops != plan.TotalUops() {
				t.Fatalf("slots deliver %d µops, plan declares %d", slotUops, plan.TotalUops())
			}
			if len(insts) > 0 && plan.TotalUops() == 0 {
				t.Fatalf("%d macro-ops decoded to zero µops", len(insts))
			}
			if plan.LCPStalls > plan.Cycles() {
				t.Fatalf("LCP stalls %d exceed schedule length %d", plan.LCPStalls, plan.Cycles())
			}

			uc := uopcache.Skylake()
			tr := uopcache.BuildTrace(uc, 0x1000, 0, plan.Macros)
			if tr.Cacheable {
				if len(tr.Lines) > uopcache.MaxLinesPerRegion {
					t.Fatalf("cacheable trace uses %d lines, cap %d", len(tr.Lines), uopcache.MaxLinesPerRegion)
				}
				for _, l := range tr.Lines {
					if l.Slots > uc.SlotsPerLine {
						t.Fatalf("line holds %d slots, cap %d", l.Slots, uc.SlotsPerLine)
					}
				}
			}
		}
	})
}
