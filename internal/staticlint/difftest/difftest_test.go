package difftest

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deaduops/internal/profile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// corpusSize is how many generated victims the corpus test validates in
// plain `go test` mode — every one must satisfy the acceptance
// contract (sign agreement and ±25% accuracy per direction).
const corpusSize = 200

// skylake is the default-profile harness the single-profile corpus
// tests run under; the profile matrix tests build one per profile.
var skylake = NewHarness(profile.Default())

func TestDifferentialCorpus(t *testing.T) {
	worst := 0.0
	results, err := skylake.RunMany(SeedRange(1, corpusSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Errorf("%v", err)
			continue
		}
		for _, d := range []struct{ pred, meas int }{
			{r.PredTaken, r.MeasTaken},
			{r.PredFall, r.MeasFall},
		} {
			off := float64(d.pred-d.meas) / float64(d.meas)
			if off < 0 {
				off = -off
			}
			if off > worst {
				worst = off
			}
		}
	}
	t.Logf("validated %d victims; worst relative error %.2f%%", corpusSize, 100*worst)
}

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 4, 8, 1337} {
		v1, err := skylake.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v2, err := skylake.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v1.Branch != v2.Branch || v1.Shape != v2.Shape ||
			!reflect.DeepEqual(v1.Taken, v2.Taken) ||
			!reflect.DeepEqual(v1.Fall, v2.Fall) ||
			!reflect.DeepEqual(v1.Suffix, v2.Suffix) ||
			!reflect.DeepEqual(v1.TakenUnc, v2.TakenUnc) ||
			!reflect.DeepEqual(v1.FallUnc, v2.FallUnc) {
			t.Errorf("seed %d: generation not deterministic:\n%+v\n%+v", seed, v1, v2)
		}
		p1, err := skylake.Predict(v1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p2, err := skylake.Predict(v2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p1.Taken != p2.Taken || p1.Fall != p2.Fall {
			t.Errorf("seed %d: prediction not deterministic: %d/%d vs %d/%d",
				seed, p1.Taken, p1.Fall, p2.Taken, p2.Fall)
		}
	}
}

// canonicalSeeds pin one victim per control-flow shape: seed 19 is a
// leaf, seed 0 branches in a callee on a register argument, seed 5
// branches in a callee on a reloaded spill, seed 3 nests a second
// secret branch, seed 2 rejoins a shared suffix, and seed 1 drains
// each direction into an uncacheable tail chain. Their predicted and
// measured deltas are pinned in testdata/canonical.golden; run with
// -update after an intentional cost-model change.
var canonicalSeeds = []uint64{0, 1, 2, 3, 5, 19}

type canonicalRecord struct {
	Seed      uint64 `json:"seed"`
	Victim    string `json:"victim"`
	PredTaken int    `json:"predicted_taken_delta_cycles"`
	PredFall  int    `json:"predicted_fallthrough_delta_cycles"`
	MeasTaken int    `json:"measured_taken_delta_cycles"`
	MeasFall  int    `json:"measured_fallthrough_delta_cycles"`
}

func TestCanonicalGolden(t *testing.T) {
	var records []canonicalRecord
	for _, seed := range canonicalSeeds {
		r, err := skylake.RunWith(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("canonical victim no longer validates: %v", err)
		}
		records = append(records, canonicalRecord{
			Seed:      r.Seed,
			Victim:    r.Describe(),
			PredTaken: r.PredTaken,
			PredFall:  r.PredFall,
			MeasTaken: r.MeasTaken,
			MeasFall:  r.MeasFall,
		})
	}
	got, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "canonical.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("canonical predictions drifted from golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// FuzzPredictedDelta throws random seeds at the generator and holds
// every victim to the acceptance contract. The committed corpus keeps
// the counterexamples found while calibrating the cost model — seeds 9,
// 10, 15, and 52 historically exposed the pipeline-fill lag, per-set
// capacity overflow, and the model's worst rounding cases (their
// decoded victims changed when the shape draw was prepended to the
// stream, but they stay as regression anchors) — plus seed 6, a
// callee-spill victim whose reload is subject to the backend's
// load-after-store ordering stall, and seed 17, a shared-suffix victim
// whose footprints diverge only in a prefix. Seed 220 (testdata corpus)
// originally pinned the SignFloor clause with a near-tie rounded to
// opposite signs; it stays as a near-tie anchor. Seeds 1, 61, 88, and
// 199 are uncacheable-shape victims whose dense single-byte tails
// decode faster than the backend drains: under per-segment summing
// they under-predicted each direction's delta by a 26–46% retire-tail
// gap, which is what forced whole-run pricing onto the cycle-for-cycle
// delivery/drain race (decode.RunRace).
func FuzzPredictedDelta(f *testing.F) {
	for _, seed := range []uint64{1, 4, 6, 8, 9, 10, 15, 17, 52, 61, 88, 199, 1337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r, err := skylake.RunWith(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	})
}
