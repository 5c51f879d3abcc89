package channel

import (
	"bytes"
	"testing"

	"deaduops/internal/cpu"
)

// transmitter is the surface every channel flavour shares.
type transmitter interface {
	Transmit(payload []byte) ([]byte, Result, error)
}

// TestChannelMatrix drives every channel flavour through one table:
// the binary same-address-space baseline and the cross-SMT channel on
// the competitively shared Zen micro-op cache (§V-C). Each must deliver
// the payload bit-exact with a sane Result.
func TestChannelMatrix(t *testing.T) {
	cases := []struct {
		name    string
		open    func() (transmitter, error)
		payload string
	}{
		{
			name: "binary-intel",
			open: func() (transmitter, error) {
				return NewSameAddressSpace(cpu.New(cpu.Intel()), DefaultConfig())
			},
			payload: "dead uops",
		},
		{
			name: "cross-smt-zen",
			open: func() (transmitter, error) {
				return NewCrossSMT(cpu.New(cpu.AMD()), DefaultConfig())
			},
			payload: "smt neighbours",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := ch.Transmit([]byte(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte(tc.payload)) {
				t.Errorf("received %q, want %q (%d bit errors)", got, tc.payload, res.BitErrors)
			}
			if want := 8 * len(tc.payload); res.Bits != want {
				t.Errorf("result counts %d bits, want %d", res.Bits, want)
			}
			if res.ErrorRate() != 0 {
				t.Errorf("error rate %f on a noiseless simulator", res.ErrorRate())
			}
			if res.BandwidthKbps() <= 0 {
				t.Errorf("bandwidth %f not positive (cycles %d)", res.BandwidthKbps(), res.Cycles)
			}
		})
	}
}
