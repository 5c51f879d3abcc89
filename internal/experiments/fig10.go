package experiments

import (
	"deaduops/internal/cpu"
	"deaduops/internal/transient"
	"deaduops/internal/victim"
)

func init() {
	Registry["fig10"] = func(o Options) (Renderable, error) { return Fig10Fences(o) }
}

// fig10Trials is how many measured trials each Fig 10 fence runs after
// its warm-up pass.
const fig10Trials = 8

// Fig10Fences reproduces Fig 10: the variant-2 micro-op cache timing
// signal under three victims — no fence, LFENCE, and CPUID between the
// authorization check and the transmitter. The signal (probe-time gap
// between secret=1 and secret=0) survives LFENCE, because the
// transmitter's footprint is left by fetch, not execution; only the
// fetch-serializing CPUID closes it.
func Fig10Fences(o Options) (*Figure, error) {
	fig := &Figure{
		ID:    "fig10",
		Title: "Micro-op cache timing signal with CPUID, LFENCE, and no fencing",
		XAxis: "trial",
		YAxis: "probe-time gap zero−one (cycles; >0 means the secret leaks)",
	}
	fences := []victim.Fence{victim.NoFence, victim.WithLFENCE, victim.WithCPUID}
	series, err := sweep(o, len(fences), func(a *cpu.Arena, i int) (Series, error) {
		f := fences[i]
		c := cpu.NewWith(cpu.Intel(), a)
		v, err := transient.NewVariant2(c, f)
		if err != nil {
			return Series{}, err
		}
		s := Series{Label: "fence=" + f.String()}
		// Warm-up pass. Trials within one fence share the CPU's cache
		// state, so they stay sequential; the three fences fan out.
		if _, _, err := v.SignalStrength(1); err != nil {
			return Series{}, err
		}
		for trial := 0; trial < fig10Trials; trial++ {
			one, zero, err := v.SignalStrength(1)
			if err != nil {
				return Series{}, err
			}
			s.X = append(s.X, float64(trial))
			s.Y = append(s.Y, zero-one)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}
