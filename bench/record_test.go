package main

import (
	"testing"
	"time"
)

// phase returns a recorder holding n sequential ops of 10 ms each, run
// back to back, with slow[i] ops taking 100 ms instead.
func phase(n int, slow map[int]bool) *recorder {
	r := newRecorder(n, false, false)
	for i := 0; i < n; i++ {
		r.lat[i], r.done[i] = int64(10*time.Millisecond), true
		if slow[i] {
			r.lat[i] = int64(100 * time.Millisecond)
		}
		r.active += time.Duration(r.lat[i])
	}
	return r
}

// TestFiguresCountEveryOp slows one op in one chunk of four ops out of
// every four chunks, as a cold path or a periodic stall would, and
// checks that throughput and the 95th percentile both show it.
func TestFiguresCountEveryOp(t *testing.T) {
	const n = 80
	opsPerS, lat := phase(n, nil).figures()
	if !near(opsPerS, 100) || !near(lat.Median, 10) || !near(lat.P95, 10) || lat.N != n {
		t.Fatalf("uniform phase: %v ops/s, %+v", opsPerS, lat)
	}

	slow := map[int]bool{}
	for chunk := 0; chunk < n/4; chunk += 4 {
		slow[4*chunk+1] = true
	}
	opsPerS, lat = phase(n, slow).figures()
	// 5 of the 80 ops take 90 ms longer: 80 ops in 1.25 s.
	if !near(opsPerS, 64) {
		t.Errorf("throughput = %v ops/s, want 64", opsPerS)
	}
	if !near(lat.Median, 10) {
		t.Errorf("p50 = %v ms, want 10", lat.Median)
	}
	// The 5 slow ops are the top 5 of 80, and p95 sits at rank 76.95.
	if !near(lat.P95, 100) {
		t.Errorf("p95 = %v ms, want 100", lat.P95)
	}

	if opsPerS, lat := newRecorder(4, false, false).figures(); opsPerS != 0 || lat.N != 0 {
		t.Errorf("empty phase: %v ops/s, %+v", opsPerS, lat)
	}
}

// TestStolenShare parses two /proc/stat readings: between them the
// CPUs were busy for 300 ticks (user 200, nice 10, system 60, irq 10,
// softirq 20) and 100 ticks were stolen, so a quarter of the CPU time
// the machine wanted went to other guests. Idle and iowait ticks do not
// count.
func TestStolenShare(t *testing.T) {
	const (
		before = "cpu  1000 50 300 9000 40 20 30 500 0 0\ncpu0 500 25 150 4500 20 10 15 250 0 0\n"
		after  = "cpu  1200 60 360 9900 90 30 50 600 0 0\ncpu0 600 30 180 4950 45 15 25 300 0 0\n"
	)
	a, err := parseCPUTicks(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCPUTicks(after)
	if err != nil {
		t.Fatal(err)
	}
	if got := stolenShare(a, b); !near(got, 0.25) {
		t.Errorf("stolen share = %v, want 0.25", got)
	}
	if got := stolenShare(a, a); got != 0 {
		t.Errorf("no time passed: stolen share = %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3 4 5 6 7\n", "cpu  1 2 3 4 5 6 7 x\n"} {
		if _, err := parseCPUTicks(bad); err == nil {
			t.Errorf("parseCPUTicks(%q) accepted a malformed line", bad)
		}
	}
}
