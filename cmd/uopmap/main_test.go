package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenPresets pins each preset's region table and set occupancy
// byte for byte.
func TestGoldenPresets(t *testing.T) {
	for _, preset := range []string{"tiger", "zebra", "fast"} {
		t.Run(preset, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-preset", preset}, &out, &errb); code != 0 {
				t.Fatalf("uopmap exited %d: %s", code, errb.String())
			}
			path := filepath.Join("testdata", preset+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}

// TestAllSetsChainFails is the regression for a chain over every set:
// there is no free set for the loop tail, so uopmap must exit non-zero
// with that error instead of searching forever.
func TestAllSetsChainFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sets", "32"}, &out, &errb); code != 1 {
		t.Fatalf("uopmap -sets 32 exited %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no free set for the loop tail") {
		t.Errorf("stderr %q lacks the loop-tail error", errb.String())
	}
}
