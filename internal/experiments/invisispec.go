package experiments

import (
	"deaduops/internal/cpu"
	"deaduops/internal/transient"
)

func init() {
	Registry["invisispec"] = func(o Options) (Renderable, error) { return InvisibleSpeculation(o) }
}

// InvisibleSpeculation evaluates the §VII claim that
// invisible-speculation defenses (InvisiSpec, SafeSpec, delay-on-miss,
// …) do not stop the micro-op cache attack: with speculative cache
// fills deferred to retirement, the classic Spectre-v1 flush+reload
// attack loses its disclosure primitive entirely, while variant-1 —
// whose footprint is created by the front end at fetch — keeps leaking.
func InvisibleSpeculation(o Options) (*Table, error) {
	secret := testPayload(4, payloadSeed)

	t := &Table{
		ID:    "invisispec",
		Title: "§VII invisible speculation vs the two Spectre variants",
		Columns: []string{
			"Defense", "Classic Spectre-v1 (LLC)", "µop-cache Variant-1",
		},
	}

	classic := func(invisible bool, a *cpu.Arena) string {
		cfg := cpu.Intel()
		cfg.Backend.InvisibleSpeculation = invisible
		c := cpu.NewWith(cfg, a)
		cl, err := transient.NewClassicSpectre(c)
		if err != nil {
			return "CLOSED"
		}
		cl.WriteSecret(secret)
		got, _, err := cl.Leak(len(secret))
		if err != nil || !bytesEqual(got, secret) {
			return "CLOSED"
		}
		return "leaks"
	}
	uop := func(invisible bool, a *cpu.Arena) string {
		cfg := cpu.Intel()
		cfg.Backend.InvisibleSpeculation = invisible
		c := cpu.NewWith(cfg, a)
		v, err := transient.NewVariant1(c)
		if err != nil {
			return "CLOSED"
		}
		v.WriteSecret(secret)
		got, _, err := v.Leak(len(secret))
		if err != nil || !bytesEqual(got, secret) {
			return "CLOSED"
		}
		return "LEAKS"
	}

	variants := []bool{false, true}
	rows, err := sweep(o, len(variants), func(a *cpu.Arena, i int) ([]string, error) {
		inv := variants[i]
		name := "none (baseline)"
		if inv {
			name = "invisible speculation"
		}
		return []string{name, classic(inv, a), uop(inv, a)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
