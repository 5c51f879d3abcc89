package decode_test

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/decode"
	"deaduops/internal/profile"
)

func TestZenConfig(t *testing.T) {
	cfg := profile.Zen().Decode
	// Zen's 1:2 decoders relegate 3+-µop instructions to microcode in
	// the real part; our model keeps them on the complex decoder but
	// the width limits still hold.
	b := asm.New(0x1000)
	for i := 0; i < 8; i++ {
		b.Nop(1)
	}
	plan := decode.PlanRegion(cfg, b.MustBuild().Insts)
	for _, slot := range plan.Slots {
		if len(slot) > cfg.DecodeWidth {
			t.Errorf("Zen slot %d exceeds width %d", len(slot), cfg.DecodeWidth)
		}
	}
}
