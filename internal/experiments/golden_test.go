package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runs memoizes defaultRun: the tests of this package run sequentially,
// so one map serves the whole process.
var runs = map[string]Renderable{}

// defaultRun returns experiment id's result at the default Options,
// running it at most once per test process, so the golden test and the
// claims tests check one and the same run.
func defaultRun(t *testing.T, id string) Renderable {
	t.Helper()
	if r, ok := runs[id]; ok {
		return r
	}
	r, err := Registry[id](Options{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	runs[id] = r
	return r
}

// readGolden returns the pinned rendering of experiment id.
func readGolden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	return string(want)
}

func goldenPath(id string) string { return filepath.Join("testdata", id+".golden") }

// TestGoldenOutputs pins every registered experiment's rendering byte
// for byte, so a refactor of any measurement path has to reproduce
// each figure and table exactly. Regenerate with
// go test ./internal/experiments -run TestGoldenOutputs -update.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := defaultRun(t, id).Render()
			if *update {
				if err := os.WriteFile(goldenPath(id), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if want := readGolden(t, id); got != want {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath(id), got, want)
			}
		})
	}
}
