package channel

import (
	"bytes"
	"testing"

	"deaduops/internal/cpu"
	"deaduops/internal/ecc"
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

// TestTransmitWithReedSolomon is the §V-D stack end to end: the
// payload is Reed–Solomon encoded, carried over the same-address-space
// channel, corrupted at the receiver (symbol flips standing in for the
// bit errors a real noisy machine injects), and decoded. Up to
// nParity/2 corrupted bytes per block must be transparent; more must
// be reported, never silently mis-decoded into an unflagged wrong
// payload of the right shape.
func TestTransmitWithReedSolomon(t *testing.T) {
	const nParity = 8 // corrects up to 4 byte errors per block
	codec, err := ecc.NewCodec(nParity)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("microcoded secrets")
	encoded, err := codec.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewSameAddressSpace(cpu.New(cpu.Intel()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	received, _, err := ch.Transmit(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, encoded) {
		t.Fatalf("channel corrupted the stream before injection")
	}

	cases := []struct {
		name    string
		flips   []int // byte positions to corrupt in the received stream
		wantErr bool
	}{
		{name: "clean", flips: nil},
		{name: "one-error", flips: []int{2}},
		{name: "at-capacity", flips: []int{0, 7, 13, 20}},
		{name: "beyond-capacity", flips: []int{0, 3, 7, 11, 13, 17, 20, 22}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := append([]byte(nil), received...)
			for _, p := range tc.flips {
				stream[p] ^= 0x5A
			}
			got, err := codec.Decode(stream, len(payload))
			if tc.wantErr {
				if err == nil && bytes.Equal(got, payload) {
					t.Fatalf("decode corrected %d errors past capacity", len(tc.flips))
				}
				return
			}
			if err != nil {
				t.Fatalf("decode failed with %d injected errors: %v", len(tc.flips), err)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("decoded %q, want %q", got, payload)
			}
		})
	}
}
