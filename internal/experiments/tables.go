package experiments

import (
	"fmt"

	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/transient"
)

func init() {
	Registry["table1"] = func(o Options) (Renderable, error) { return Table1Channels(o) }
	Registry["table2"] = func(o Options) (Renderable, error) { return Table2SpectreTrace(o) }
}

// rsParity is the parity of the RS(255, 213) Reed-Solomon code the
// corrected bandwidth column assumes (42/213 ≈ 19.7% overhead, the
// paper's ~20%). The column divides by the code rate and no codec runs:
// the model has no noise, so no codeword ever needs correcting.
const rsParity = 42

// Table1Channels reproduces Table I: bit error rate, raw bandwidth, and
// Reed-Solomon-corrected bandwidth for the four channel modes.
func Table1Channels(o Options) (*Table, error) {
	payload := testPayload(48, payloadSeed)

	t := &Table{
		ID:    "table1",
		Title: "Bandwidth and Error Rate Comparison",
		Columns: []string{
			"Mode", "Bit Error Rate", "Bandwidth (Kbit/s)", "Bandwidth with error correction",
		},
	}

	row := func(mode string, res channel.Result) []string {
		corrected := res.BandwidthKbps() / (1 + float64(rsParity)/float64(255-rsParity))
		return []string{
			mode,
			fmt.Sprintf("%.2f%%", 100*res.ErrorRate()),
			fmt.Sprintf("%.2f", res.BandwidthKbps()),
			fmt.Sprintf("%.2f", corrected),
		}
	}

	// The four channel modes are independent measurements on separate
	// cores, so they fan out as sweep points.
	modes := []func(a *cpu.Arena) ([]string, error){
		func(a *cpu.Arena) ([]string, error) {
			c := cpu.NewWith(cpu.Intel(), a)
			ch, err := channel.NewSameAddressSpace(c, channel.DefaultConfig())
			if err != nil {
				return nil, fmt.Errorf("table1 same-AS: %w", err)
			}
			_, res, err := ch.Transmit(payload)
			if err != nil {
				return nil, err
			}
			return row("Same address space", res), nil
		},
		func(a *cpu.Arena) ([]string, error) {
			c := cpu.NewWith(cpu.Intel(), a)
			ch, err := channel.NewUserKernel(c, channel.DefaultConfig())
			if err != nil {
				return nil, fmt.Errorf("table1 user/kernel: %w", err)
			}
			ch.WriteSecret(payload)
			got, res, err := ch.Leak(len(payload))
			if err != nil {
				return nil, err
			}
			res.BitErrors = bitErrors(payload, got)
			return row("Same address space (User/Kernel)", res), nil
		},
		func(a *cpu.Arena) ([]string, error) {
			// Cross-thread (SMT) on the AMD-style competitively shared cache.
			c := cpu.NewWith(cpu.AMD(), a)
			ch, err := channel.NewCrossSMT(c, channel.DefaultConfig())
			if err != nil {
				return nil, fmt.Errorf("table1 cross-SMT: %w", err)
			}
			_, res, err := ch.Transmit(payload)
			if err != nil {
				return nil, err
			}
			return row("Cross-thread (SMT)", res), nil
		},
		func(a *cpu.Arena) ([]string, error) {
			// Transient execution attack (variant 1).
			c := cpu.NewWith(cpu.Intel(), a)
			v, err := transient.NewVariant1(c)
			if err != nil {
				return nil, fmt.Errorf("table1 transient: %w", err)
			}
			v.WriteSecret(payload)
			got, st, err := v.Leak(len(payload))
			if err != nil {
				return nil, err
			}
			res := channel.Result{
				Bits:      st.Bits,
				BitErrors: bitErrors(payload, got),
				Cycles:    st.Cycles,
			}
			return row("Transient Execution Attack", res), nil
		},
	}
	rows, err := sweep(o, len(modes), func(a *cpu.Arena, i int) ([]string, error) {
		return modes[i](a)
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows

	return t, nil
}

// bitErrors counts differing bits between two equal-length buffers.
func bitErrors(a, b []byte) int {
	n := 0
	for i := range a {
		d := a[i] ^ b[i]
		for d != 0 {
			n += int(d & 1)
			d >>= 1
		}
	}
	return n
}

// Table2SpectreTrace reproduces Table II: the classic Spectre-v1
// (flush+reload over the LLC) and the µop-cache variant leaking the
// same secret, traced with performance counters.
func Table2SpectreTrace(o Options) (*Table, error) {
	secret := testPayload(8, payloadSeed)

	t := &Table{
		ID:    "table2",
		Title: "Tracing Spectre Variants using Performance Counters",
		Columns: []string{
			"Attack", "Time Taken", "LLC References", "LLC Misses",
			"µop Cache Miss Penalty", "Bits Wrong",
		},
	}

	rows, err := sweep(o, 2, func(a *cpu.Arena, i int) ([]string, error) {
		c := cpu.NewWith(cpu.Intel(), a)
		var (
			name string
			got  []byte
			st   transient.Stats
			err  error
		)
		if i == 0 {
			// Classic Spectre-v1 over the LLC.
			name = "Spectre (original)"
			cl, e := transient.NewClassicSpectre(c)
			if e != nil {
				return nil, e
			}
			cl.WriteSecret(secret)
			got, st, err = cl.Leak(len(secret))
		} else {
			// µop cache variant.
			name = "Spectre (µop Cache)"
			v, e := transient.NewVariant1(c)
			if e != nil {
				return nil, e
			}
			v.WriteSecret(secret)
			got, st, err = v.Leak(len(secret))
		}
		if err != nil {
			return nil, err
		}
		return []string{
			name,
			fmt.Sprintf("%.6f s", st.Seconds(channel.ClockGHz)),
			fmt.Sprint(st.LLCRefs),
			fmt.Sprint(st.LLCMisses),
			fmt.Sprintf("%d cycles", st.UopMissPenalty),
			fmt.Sprint(bitErrors(secret, got)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows

	return t, nil
}
