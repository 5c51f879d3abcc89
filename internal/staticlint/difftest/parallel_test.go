package difftest

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestRunManyDeterminism is the differential-corpus half of the
// parallel-sweep gate: the same seed list run sequentially and across
// a worker pool must produce deeply equal results — and identical JSON
// — because every seed builds its own victim and simulator. Run under
// -race in CI, this also shakes out shared state between seeds.
func TestRunManyDeterminism(t *testing.T) {
	seeds := SeedRange(1, 20)
	seq, err := skylake.RunMany(seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := skylake.RunMany(seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel results differ from sequential:\nsequential: %+v\nparallel: %+v", seq, par)
	}
	sj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Error("parallel JSON differs from sequential")
	}
}

// TestRunProbeManyDeterminism is the receiver-model half of the gate.
func TestRunProbeManyDeterminism(t *testing.T) {
	seeds := SeedRange(1, 20)
	seq, err := skylake.RunProbeMany(seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := skylake.RunProbeMany(seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel probe results differ from sequential")
	}
}
