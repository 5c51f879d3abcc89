package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenOutputs pins every registered experiment's rendering at
// the default Options byte for byte, so a refactor of any measurement
// path has to reproduce each figure and table exactly. Regenerate with
// go test ./internal/experiments -run TestGoldenOutputs -update.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			out, err := Registry[id](Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := out.Render()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
