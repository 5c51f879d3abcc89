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

// TestGoldenPresets pins each preset's trace byte for byte: every
// retired macro-op's cycle, delivery path, address and opcode, and
// every squash.
func TestGoldenPresets(t *testing.T) {
	for _, preset := range []string{"warmup", "spectre"} {
		t.Run(preset, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-preset", preset}, &out, &errb); code != 0 {
				t.Fatalf("uoptrace exited %d: %s", code, errb.String())
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

// TestUnknownPresetExits2 checks that a bad -preset is a usage error.
func TestUnknownPresetExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-preset", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("uoptrace -preset nope exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown preset "nope"`) {
		t.Errorf("stderr %q lacks the unknown-preset error", errb.String())
	}
}
