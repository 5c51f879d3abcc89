package uopcache_test

import (
	"testing"

	"deaduops/internal/uopcache"
)

func TestSetIndexOf(t *testing.T) {
	cfg := uopcache.Skylake()
	cases := []struct {
		addr uint64
		set  int
	}{
		{0x0, 0},
		{0x20, 1},
		{0x3F, 1},            // within region 1
		{0x20 * 32, 0},       // wraps at Sets
		{0x20*32 + 0x40, 2},  // wrap + region 2
		{0x1000, 0},          // bit 12 is above the index field
		{0x1000 + 0x20*5, 5}, // typical code address
	}
	for _, c := range cases {
		if got := cfg.SetIndexOf(c.addr); got != c.set {
			t.Errorf("SetIndexOf(%#x) = %d, want %d", c.addr, got, c.set)
		}
	}
}
