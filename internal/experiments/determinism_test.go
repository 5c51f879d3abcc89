package experiments

import "testing"

// TestSweepDeterminism is the parallel-sweep gate: an experiment run
// sequentially (Workers: 1) must render byte-identically to its
// golden, which TestGoldenOutputs checks against a run across the
// default worker pool. Each sweep point builds its own simulated core
// and the pool assembles results in input order, so worker count can
// only change wall-clock time, never output. Fig 5 covers the Grid
// path (the largest sweep, 2-D eviction heat map) and Table I covers
// the Table path (four channels, one core each). Under -race in CI,
// the pooled golden runs also shake out any shared state between
// sweep points.
func TestSweepDeterminism(t *testing.T) {
	for _, id := range []string{"fig5", "table1"} {
		seq, err := Registry[id](Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		if got, want := seq.Render(), readGolden(t, id); got != want {
			t.Errorf("%s: sequential rendering differs from the golden:\n%s", id, got)
		}
	}
}
