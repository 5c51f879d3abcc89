package channel

import (
	"bytes"
	"testing"

	"deaduops/internal/attack"
	"deaduops/internal/cpu"
)

func TestSameAddressSpaceTransmitsExactly(t *testing.T) {
	c := cpu.New(cpu.Intel())
	ch, err := NewSameAddressSpace(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("covert channel test payload 0123456789")
	got, res, err := ch.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload corrupted: %q vs %q (%d bit errors)", got, payload, res.BitErrors)
	}
	if res.Bits != len(payload)*8 {
		t.Errorf("bits = %d, want %d", res.Bits, len(payload)*8)
	}
	if res.BandwidthKbps() < 50 {
		t.Errorf("bandwidth %.1f Kbps implausibly low", res.BandwidthKbps())
	}
}

func TestSameAddressSpaceThresholdSeparation(t *testing.T) {
	c := cpu.New(cpu.Intel())
	ch, err := NewSameAddressSpace(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Threshold()
	if th.MissMean < th.HitMean*2 {
		t.Errorf("weak separation: hit=%.0f miss=%.0f", th.HitMean, th.MissMean)
	}
}

func TestSameAddressSpaceAlternatingBits(t *testing.T) {
	c := cpu.New(cpu.Intel())
	ch, err := NewSameAddressSpace(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := i%2 == 0
		got, err := ch.TransmitBit(want)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bit %d: sent %v received %v", i, want, got)
		}
	}
}

func TestUserKernelLeaksSecret(t *testing.T) {
	c := cpu.New(cpu.Intel())
	ch, err := NewUserKernel(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("KernelSecret!42")
	ch.WriteSecret(secret)
	got, res, err := ch.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("leaked %q, want %q", got, secret)
	}
	if res.Bits != len(secret)*8 {
		t.Errorf("bits = %d", res.Bits)
	}
}

func TestUserKernelSecretChangesAreTracked(t *testing.T) {
	// The channel must read the current kernel secret, not calibration
	// residue.
	c := cpu.New(cpu.Intel())
	ch, err := NewUserKernel(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, secret := range [][]byte{{0xA5}, {0x00}, {0xFF}, {0x3C}} {
		ch.WriteSecret(secret)
		got, _, err := ch.Leak(1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != secret[0] {
			t.Errorf("secret %#x leaked as %#x", secret[0], got[0])
		}
	}
}

func TestCrossSMTTransmitsOnAMD(t *testing.T) {
	c := cpu.New(cpu.AMD())
	ch, err := NewCrossSMT(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("SMT covert xfer")
	got, res, err := ch.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("leaked %q, want %q (%d bit errors)", got, payload, res.BitErrors)
	}
}

func TestCrossSMTFindsNoSignalOnIntel(t *testing.T) {
	// On the statically partitioned Intel micro-op cache the SMT
	// channel must find no signal — the paper's motivation for moving
	// the cross-thread attack to AMD Zen.
	c := cpu.New(cpu.Intel())
	if _, err := NewCrossSMT(c, DefaultConfig()); err == nil {
		t.Error("cross-SMT channel calibrated on a partitioned cache")
	}
}

func TestResultMath(t *testing.T) {
	r := Result{Bits: 100, BitErrors: 5, Cycles: 2_700_000}
	if got := r.ErrorRate(); got != 0.05 {
		t.Errorf("error rate %v", got)
	}
	// 2.7e6 cycles at 2.7 GHz = 1 ms; 100 bits / 1 ms = 100 Kbit/s.
	if got := r.BandwidthKbps(); got < 99.9 || got > 100.1 {
		t.Errorf("bandwidth %v", got)
	}
	var zero Result
	if zero.ErrorRate() != 0 || zero.BandwidthKbps() != 0 {
		t.Error("zero-value Result must not divide by zero")
	}
}

func TestZebraNeverDisturbsReceiver(t *testing.T) {
	// Transmitting a run of zeros must keep every probe at hit level.
	c := cpu.New(cpu.Intel())
	ch, err := NewSameAddressSpace(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got, err := ch.TransmitBit(false)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("zero bit %d received as one", i)
		}
	}
}

func TestGeometryDisjointSets(t *testing.T) {
	for _, nsets := range []int{1, 2, 4, 8, 16} {
		g := attack.Geometry{NSets: nsets, NWays: 6}
		tiger := map[int]bool{}
		for _, s := range g.TigerSets() {
			tiger[s] = true
		}
		for _, s := range g.ZebraSets() {
			if tiger[s] {
				t.Errorf("nsets=%d: zebra set %d collides with tiger", nsets, s)
			}
		}
	}
}
