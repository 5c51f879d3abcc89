package transient_test

import (
	"fmt"

	"deaduops/internal/cpu"
	"deaduops/internal/transient"
	"deaduops/internal/victim"
)

// Example leaks a victim library's secret through the micro-op cache
// after transiently bypassing its bounds check (the paper's variant 1).
func Example() {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewVariant1(c)
	if err != nil {
		fmt.Println(err)
		return
	}
	v.WriteSecret([]byte("k3y"))
	leaked, _, err := v.Leak(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s\n", leaked)
	// Output:
	// k3y
}

// ExampleVariant2 leaks secret bits through a fenced indirect call: the
// transmitter is fetched at its predicted target before it can ever be
// dispatched, so LFENCE, which only stops dispatch, leaves the channel
// open. CPUID serializes fetch itself and closes it (Fig 10).
func ExampleVariant2() {
	for _, fence := range []victim.Fence{victim.NoFence, victim.WithLFENCE, victim.WithCPUID} {
		v, err := transient.NewVariant2(cpu.New(cpu.Intel()), fence)
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := v.Calibrate(4); err != nil {
			fmt.Printf("fence=%-6s closed: %v\n", fence, err)
			continue
		}
		ok := 0
		for _, bit := range []int{1, 0, 1, 1, 0} {
			v.WriteSecret(bit)
			got, err := v.LeakBit()
			if err != nil {
				fmt.Println(err)
				return
			}
			if got == (bit == 1) {
				ok++
			}
		}
		fmt.Printf("fence=%-6s open: %d/5 secret bits recovered\n", fence, ok)
	}
	// Output:
	// fence=none   open: 5/5 secret bits recovered
	// fence=lfence open: 5/5 secret bits recovered
	// fence=cpuid  closed: transient: no variant-2 signal under cpuid fence (hit 104 [104..104], miss 104 [104..104] cycles over 1 traversals)
}

// ExampleNewClassicSpectre contrasts the classic Spectre-v1 baseline,
// which transmits through LLC flush+reload, with variant 1, which
// transmits through the micro-op cache. Both leak the secret, but only
// the classic attack's LLC references stand out to a cache monitor;
// variant 1's signal is the micro-op cache miss penalty.
func ExampleNewClassicSpectre() {
	secret := []byte("k3y")
	v1, err := transient.NewVariant1(cpu.New(cpu.Intel()))
	if err != nil {
		fmt.Println(err)
		return
	}
	v1.WriteSecret(secret)
	leaked, st, err := v1.Leak(len(secret))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("variant 1: leaked %q, LLC references %d, µop-cache miss penalty %d cycles\n",
		leaked, st.LLCRefs, st.UopMissPenalty)

	cl, err := transient.NewClassicSpectre(cpu.New(cpu.Intel()))
	if err != nil {
		fmt.Println(err)
		return
	}
	cl.WriteSecret(secret)
	leaked, st, err = cl.Leak(len(secret))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("classic:   leaked %q, LLC references %d, µop-cache miss penalty %d cycles\n",
		leaked, st.LLCRefs, st.UopMissPenalty)
	// Output:
	// variant 1: leaked "k3y", LLC references 288, µop-cache miss penalty 21877 cycles
	// classic:   leaked "k3y", LLC references 796, µop-cache miss penalty 12 cycles
}
