package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var burnSink uint64

// burn spins on the CPU for d so the profiler has samples to take.
func burn(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

// TestProfileDecoderOnCapturedProfile captures a real CPU profile and
// checks the decoder recovers the function that burned the CPU.
func TestProfileDecoderOnCapturedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("decoded no samples")
	}
	a := attribute(p)
	if a.TotalNanos <= 0 {
		t.Fatalf("total CPU time %d ns", a.TotalNanos)
	}
	const fn = "deaduops/bench.burn"
	var burnNs int64
	for name, ns := range a.Cum {
		// Test binaries name package main by its import path.
		if name == fn || name == "main.burn" {
			burnNs = ns
		}
	}
	if share := a.share(burnNs); share < 0.5 {
		t.Errorf("burn has %.0f%% of the samples on its stack, want most", 100*share)
	}
	var layered int64
	for _, ns := range a.Layer {
		layered += ns
	}
	if layered != a.TotalNanos {
		t.Errorf("layers sum to %d ns, profile total %d ns", layered, a.TotalNanos)
	}
	for _, s := range p.Samples {
		for _, f := range s.Stack {
			if f.Name == fn && !strings.HasSuffix(f.File, "pprof_test.go") {
				t.Errorf("%s attributed to file %q", fn, f.File)
			}
		}
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"deaduops/internal/cpu.(*CPU).Run": "deaduops/internal/cpu",
		"net/http.(*conn).serve":           "net/http",
		"runtime.mallocgc":                 "runtime",
		"main.main.func1":                  "main",
		"deaduops/internal/parsweep.mapWorker[go.shape.*deaduops/internal/cpu.Arena,go.shape.struct {}].func2": "deaduops/internal/parsweep",
		"crypto/internal/fips140/sha256.(*Digest).Write":                                                       "crypto/internal/fips140/sha256",
	}
	for name, want := range cases {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestAttribution checks each sample lands on its innermost frame
// outside the runtime, with staticlint split by source file.
func TestAttribution(t *testing.T) {
	f := func(name, file string) profFunc { return profFunc{Name: name, File: file} }
	p := &cpuProfile{Samples: []profSample{
		// Allocation inside the decoder is the decoder's cost.
		{Stack: []profFunc{
			f("runtime.mallocgc", "malloc.go"),
			f("runtime.growslice", "slice.go"),
			f("deaduops/internal/decode.PlanRegion", "/src/internal/decode/decode.go"),
			f("deaduops/internal/frontend.(*FrontEnd).tickMITE", "/src/internal/frontend/frontend.go"),
		}, Nanos: 40},
		// Hashing through a standard-library internal package is charged
		// to the cache that hashes.
		{Stack: []profFunc{
			f("crypto/internal/fips140/sha256.blockSHANI", "sha256block_amd64.go"),
			f("crypto/internal/fips140/sha256.(*Digest).Write", "sha256.go"),
			f("deaduops/internal/staticlint.(*hasher).u64", "/src/internal/staticlint/cache.go"),
		}, Nanos: 20},
		{Stack: []profFunc{
			f("deaduops/internal/staticlint.BuildCFG", "/src/internal/staticlint/cfg.go"),
		}, Nanos: 10},
		{Stack: []profFunc{
			f("encoding/json.(*encodeState).string", "encode.go"),
			f("deaduops/internal/auditd.writeJSON", "/src/internal/auditd/auditd.go"),
		}, Nanos: 10},
		// A stack of runtime frames only is background runtime work.
		{Stack: []profFunc{
			f("runtime.scanobject", "mgcmark.go"),
			f("gcWriteBarrier", "asm.s"),
			f("runtime.gcBgMarkWorker", "mgc.go"),
		}, Nanos: 15},
		{Stack: []profFunc{
			f("sync.(*Mutex).Lock", "mutex.go"),
			f("main.(*recorder).fail", "/src/bench/record.go"),
		}, Nanos: 5},
	}}
	a := attribute(p)
	want := map[string]int64{
		"decode":           40,
		"staticlint.cache": 20,
		"staticlint.cfg":   10,
		"encoding_json":    10,
		runtimeGC:          15,
		"bench":            5,
	}
	if len(a.Layer) != len(want) {
		t.Errorf("layers = %v, want %v", a.Layer, want)
	}
	for l, ns := range want {
		if a.Layer[l] != ns {
			t.Errorf("layer %s = %d ns, want %d", l, a.Layer[l], ns)
		}
	}
	if a.TotalNanos != 100 {
		t.Errorf("total = %d, want 100", a.TotalNanos)
	}
	if got := a.Cum["deaduops/internal/frontend.(*FrontEnd).tickMITE"]; got != 40 {
		t.Errorf("cumulative tickMITE = %d, want 40", got)
	}
	// Program time excludes the 15 ns of background runtime work.
	if got := a.programShare(a.Cum["deaduops/internal/frontend.(*FrontEnd).tickMITE"]); !near(got, 40.0/85) {
		t.Errorf("programShare(tickMITE) = %v, want %v", got, 40.0/85)
	}
}
