package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"deaduops/internal/auditd"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalStrings(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	check := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, file[i], code[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func metricNames(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload for three ops on seed 1, both
// untraced and traced: every op must match its golden line, and each
// mode must emit exactly the metrics BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				logf := func(format string, args ...any) { t.Logf(format, args...) }
				o := options{seed: 1, maxOps: 3, setups: 1, trace: trace, goldenDir: "testdata"}
				rec, err := runWorkload(w, o, logf)
				if err != nil {
					t.Fatal(err)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
					t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				want := defNames(endToEnd)
				if trace {
					want = defNames(perLayer)
				}
				if got := metricNames(res.Metrics); !equalStrings(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				for name, v := range res.Metrics {
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
					}
				}
			})
		}
	}
}

// TestAuditRequestStream checks the request stream is a function of
// (seed, op) and keeps its fixed mix: every block sends each CI fixture
// request once, exactly as the CI job does, one fresh request per
// random count, and the previous block's fresh requests again. The
// first block has no previous one, so it sends twice as many fresh
// requests.
func TestAuditRequestStream(t *testing.T) {
	const blocks = 40
	const ops = blocks * auditBlock
	fresh := 0
	counts := map[int]int{}
	ci := map[string]int{}
	for i := 0; i < ops; i++ {
		req, first := auditRequest(7, i)
		if again, _ := auditRequest(7, i); !reflect.DeepEqual(req, again) {
			t.Fatalf("op %d: request not reproducible", i)
		}
		if req.Fixture != "" {
			if !reflect.DeepEqual(req, auditd.JobRequest{Fixture: req.Fixture}) {
				t.Fatalf("op %d: CI request %+v carries more than the fixture", i, req)
			}
			ci[req.Fixture]++
		}
		if first == i {
			if req.Fixture == "" {
				fresh++
				counts[req.Random]++
			}
			continue
		}
		orig, _ := auditRequest(7, first)
		if !reflect.DeepEqual(orig, req) {
			t.Fatalf("op %d claims to repeat op %d: %+v vs %+v", i, first, req, orig)
		}
		// A warm pass repeats the previous block's cold one.
		if block := i / auditBlock; req.Fixture == "" && first/auditBlock != block-1 {
			t.Fatalf("op %d in block %d repeats op %d of block %d", i, block, first, first/auditBlock)
		}
	}
	for _, fx := range auditCI {
		if ci[fx] != blocks {
			t.Errorf("fixture %s sent %d times in %d blocks", fx, ci[fx], blocks)
		}
	}
	if want := (blocks + 1) * len(auditRandom); fresh != want {
		t.Errorf("%d of %d requests fresh, want %d", fresh, ops, want)
	}
	for _, n := range auditRandom {
		if c := counts[n]; c != blocks+1 {
			t.Errorf("random=%d in %d fresh requests, want %d", n, c, blocks+1)
		}
	}
}
