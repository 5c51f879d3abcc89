package channel_test

import (
	"fmt"

	"deaduops/internal/channel"
	"deaduops/internal/cpu"
)

// Example transmits a message between two code regions of one address
// space using only micro-op cache conflict timing (§V-A).
func Example() {
	c := cpu.New(cpu.Intel())
	ch, err := channel.NewSameAddressSpace(c, channel.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	th := ch.Threshold()
	fmt.Printf("calibrated: hit %.0f / miss %.0f cycles\n", th.HitMean, th.MissMean)
	got, res, err := ch.Transmit([]byte("hi"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("received %q with %d bit errors\n", got, res.BitErrors)
	fmt.Printf("%d bits, %.1f Kbit/s\n", res.Bits, res.BandwidthKbps())
	// Output:
	// calibrated: hit 259 / miss 1984 cycles
	// received "hi" with 0 bit errors
	// 16 bits, 403.8 Kbit/s
}

// ExampleNewUserKernel leaks a kernel secret to a user-mode spy across
// the privilege boundary: each bit costs one syscall-probe round.
func ExampleNewUserKernel() {
	c := cpu.New(cpu.Intel())
	ch, err := channel.NewUserKernel(c, channel.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	secret := []byte("root:x:0:0:supersecret")
	ch.WriteSecret(secret)
	leaked, res, err := ch.Leak(len(secret))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("spy leaked %q via %d syscall-probe rounds (%.1f Kbit/s)\n",
		leaked, res.Bits, res.BandwidthKbps())
	// Output:
	// spy leaked "root:x:0:0:supersecret" via 176 syscall-probe rounds (404.6 Kbit/s)
}

// ExampleNewCrossSMT runs the cross-SMT-thread channel (§V-B). On the
// Zen configuration, whose micro-op cache is competitively shared, a
// Trojan on one logical core contends with a spy on its sibling for
// the same sets and the spy reads the message from its probe timing.
// On the Intel configuration the cache is statically partitioned
// between the threads, so calibration finds no signal.
func ExampleNewCrossSMT() {
	zen, err := channel.NewCrossSMT(cpu.New(cpu.AMD()), channel.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	got, res, err := zen.Transmit([]byte("hyperthread whispers"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("zen: received %q, %d bits, %d errors, %.1f Kbit/s\n",
		got, res.Bits, res.BitErrors, res.BandwidthKbps())

	_, err = channel.NewCrossSMT(cpu.New(cpu.Intel()), channel.DefaultConfig())
	fmt.Println("intel:", err)
	// Output:
	// zen: received "hyperthread whispers", 160 bits, 0 errors, 150.2 Kbit/s
	// intel: channel: no cross-SMT timing signal (hit 18894 [18894..18894], miss 18894 [18894..18894] cycles over 5 traversals)
}
