package attack

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
)

func TestTigersConflictZebraDoesNot(t *testing.T) {
	g := DefaultGeometry()
	tigerA := Tiger(0x40000, g, "ta")
	tigerB := Tiger(0x80000, g, "tb")
	zebra := Zebra(0xC0000, g, "z")

	setsOf := func(sets []int) map[int]bool {
		m := map[int]bool{}
		for _, s := range sets {
			m[s] = true
		}
		return m
	}
	sa, sb, sz := setsOf(tigerA.Sets), setsOf(tigerB.Sets), setsOf(zebra.Sets)
	for s := range sa {
		if !sb[s] {
			t.Errorf("tiger B misses tiger A's set %d", s)
		}
		if sz[s] {
			t.Errorf("zebra shares tiger set %d", s)
		}
	}
}

func TestTigerEvictsTigerTimingSignal(t *testing.T) {
	g := DefaultGeometry()
	recv, err := Build(Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := Build(Tiger(0x80000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	zeb, err := Build(Zebra(0xC0000, g, "zeb"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog, zeb.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)

	prime := func() {
		if _, err := recv.Run(c, 20); err != nil {
			t.Fatal(err)
		}
	}
	probe := func() uint64 {
		cy, err := recv.Run(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		return cy
	}

	prime()
	hit := probe()

	prime()
	if _, err := send.Run(c, 20); err != nil {
		t.Fatal(err)
	}
	miss := probe()

	prime()
	if _, err := zeb.Run(c, 20); err != nil {
		t.Fatal(err)
	}
	zebraProbe := probe()

	if miss < hit*2 {
		t.Errorf("tiger conflict signal too weak: hit %d, miss %d", hit, miss)
	}
	if zebraProbe > hit*3/2 {
		t.Errorf("zebra disturbed the receiver: hit %d, after-zebra %d", hit, zebraProbe)
	}
}

func TestCalibrate(t *testing.T) {
	g := DefaultGeometry()
	recv, _ := Build(Tiger(0x40000, g, "recv"))
	send, _ := Build(Tiger(0x80000, g, "send"))
	merged, _ := asm.Merge(recv.Prog, send.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	th, err := Calibrate(c, recv, send, 20, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if th.Cut <= th.HitMean || th.Cut >= th.MissMean {
		t.Errorf("cut %.0f outside (%.0f, %.0f)", th.Cut, th.HitMean, th.MissMean)
	}
	if !th.Hit(uint64(th.HitMean)) {
		t.Error("hit mean classified as miss")
	}
	if th.Hit(uint64(th.MissMean)) {
		t.Error("miss mean classified as hit")
	}
}

// TestThresholdBoundary pins the exactly-on-Cut convention: a probe
// landing exactly on the cut classifies as a miss (strict <), and
// Miss is Hit's exact complement — the single boundary every decode
// path in internal/channel routes through.
func TestThresholdBoundary(t *testing.T) {
	th := Threshold{HitMean: 100, MissMean: 300, Cut: 200}
	if !th.Hit(199) {
		t.Error("below-cut probe classified as miss")
	}
	if th.Hit(200) {
		t.Error("exactly-on-cut probe classified as hit; the convention is miss")
	}
	if th.Hit(201) {
		t.Error("above-cut probe classified as hit")
	}
	for _, cy := range []uint64{0, 199, 200, 201, 1 << 40} {
		if th.Hit(cy) == th.Miss(cy) {
			t.Errorf("Hit and Miss agree at %d cycles; they must be complements", cy)
		}
	}
}

// TestThresholdOutlierRound is the regression for the running-sum
// reduction bug: one anomalously slow miss round used to drag the
// mean-midpoint cut above the rest of the miss cluster, so genuine
// misses decoded as hits even though the 1.3× separation check passed.
// The spread-aware reduction clamps the cut into the observed gap.
func TestThresholdOutlierRound(t *testing.T) {
	r := Rounds{
		Hit:        []float64{100, 100, 100, 100},
		Miss:       []float64{200, 200, 200, 2000},
		ProbeIters: 5,
	}
	th, err := r.Threshold()
	if err != nil {
		t.Fatalf("outlier round rejected outright: %v", err)
	}
	// Means alone would put the cut at (100+650)/2 = 375, above the
	// 200-cycle miss cluster.
	if th.Cut >= th.MissMin {
		t.Errorf("cut %.0f at or above miss cluster minimum %.0f: outlier dragged it", th.Cut, th.MissMin)
	}
	if th.Cut <= th.HitMax {
		t.Errorf("cut %.0f at or below hit cluster maximum %.0f", th.Cut, th.HitMax)
	}
	if th.Hit(200) {
		t.Error("cluster miss round decodes as hit under the outlier-dragged cut")
	}
	if !th.Hit(100) {
		t.Error("hit round decodes as miss")
	}
	if th.MissMin != 200 || th.MissMax != 2000 || th.HitMin != 100 || th.HitMax != 100 {
		t.Errorf("per-round spread not recorded: %+v", th)
	}
}

// TestThresholdSpreadInError asserts the no-signal diagnostic carries
// both distributions' per-round extremes, not just the means.
func TestThresholdSpreadInError(t *testing.T) {
	r := Rounds{Hit: []float64{95, 105}, Miss: []float64{104, 120}, ProbeIters: 7}
	_, err := r.Threshold()
	if err == nil {
		t.Fatal("overlapping sub-floor distributions accepted")
	}
	for _, want := range []string{"[95..105]", "[104..120]", "7 traversals"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("no-signal error %q missing spread component %q", err, want)
		}
	}
}

// TestThresholdUnits pins the unit contract: threshold cycle fields
// are totals over ProbeIters traversals. Calibrating the same channel
// with twice the probe iterations must roughly double the raw means
// while the PerTraversal view stays comparable.
func TestThresholdUnits(t *testing.T) {
	calibrate := func(probeIters int64) Threshold {
		g := DefaultGeometry()
		recv, _ := Build(Tiger(0x40000, g, "recv"))
		send, _ := Build(Tiger(0x80000, g, "send"))
		merged, err := asm.Merge(recv.Prog, send.Prog)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cpu.Intel())
		c.LoadProgram(merged)
		th, err := Calibrate(c, recv, send, 20, probeIters, 4)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	th5, th10 := calibrate(5), calibrate(10)
	if th5.ProbeIters != 5 || th10.ProbeIters != 10 {
		t.Fatalf("probe unit not recorded: %d, %d", th5.ProbeIters, th10.ProbeIters)
	}
	if ratio := th10.HitMean / th5.HitMean; ratio < 1.5 || ratio > 2.5 {
		t.Errorf("doubling probeIters scaled raw hit mean by %.2f; raw means are totals and must scale", ratio)
	}
	// Per-traversal views are unit-normalized: comparable within 30%
	// (the fixed entry/exit overhead amortizes differently).
	p5, p10 := th5.PerTraversal(th5.HitMean), th10.PerTraversal(th10.HitMean)
	if ratio := p10 / p5; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("per-traversal hit means differ %.2f× across probeIters; normalization broken", ratio)
	}
	// Raw cuts across different probeIters are different units: the
	// 5-iteration miss mean must not clear the 10-iteration cut.
	if !th10.Hit(uint64(th5.MissMean)) {
		t.Errorf("5-iteration miss total %.0f read against the 10-iteration cut %.0f decodes as miss; comparing raw units must mislead",
			th5.MissMean, th10.Cut)
	}
}

func TestCalibrateRecordsSpread(t *testing.T) {
	g := DefaultGeometry()
	recv, _ := Build(Tiger(0x40000, g, "recv"))
	send, _ := Build(Tiger(0x80000, g, "send"))
	merged, _ := asm.Merge(recv.Prog, send.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	th, err := Calibrate(c, recv, send, 20, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if th.HitMin <= 0 || th.HitMax < th.HitMin || th.MissMin <= 0 || th.MissMax < th.MissMin {
		t.Errorf("spread fields not populated: %+v", th)
	}
	if th.HitMean < th.HitMin || th.HitMean > th.HitMax || th.MissMean < th.MissMin || th.MissMean > th.MissMax {
		t.Errorf("means outside recorded spreads: %+v", th)
	}
	if th.ProbeIters != 5 {
		t.Errorf("probe unit %d, want 5", th.ProbeIters)
	}
}

// TestKnownRounds pins the collector's protocol with a fake measure:
// warm-up pairs run but are not recorded, every round measures the hit
// side before the miss side, and a measurement error aborts the
// collection.
func TestKnownRounds(t *testing.T) {
	var calls []bool
	cycles := uint64(0)
	measure := func(hit bool) (uint64, error) {
		calls = append(calls, hit)
		cycles++
		return cycles, nil
	}
	r, err := KnownRounds(2, 3, 7, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 10 {
		t.Fatalf("%d measurements, want 10 (2 warm-up + 3 recorded pairs)", len(calls))
	}
	for i, hit := range calls {
		if hit != (i%2 == 0) {
			t.Errorf("measurement %d: hit=%v, want hit side first in every pair", i, hit)
		}
	}
	// Warm-up pairs returned cycles 1..4; the recorded ones follow.
	wantHit, wantMiss := []float64{5, 7, 9}, []float64{6, 8, 10}
	if !slices.Equal(r.Hit, wantHit) || !slices.Equal(r.Miss, wantMiss) {
		t.Errorf("recorded hit %v miss %v, want %v %v", r.Hit, r.Miss, wantHit, wantMiss)
	}
	if r.ProbeIters != 7 {
		t.Errorf("probe unit %d, want 7", r.ProbeIters)
	}

	boom := errors.New("boom")
	n := 0
	_, err = KnownRounds(1, 4, 1, func(hit bool) (uint64, error) {
		if n++; n == 4 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error %v, want the measurement's error", err)
	}
	if n != 4 {
		t.Errorf("collector kept measuring after an error: %d calls", n)
	}
	if _, err := KnownRounds(0, 0, 1, measure); err == nil {
		t.Error("zero recorded rounds accepted")
	}
}

func TestCalibrateNoSignalFails(t *testing.T) {
	// Calibrating a receiver against a zebra (no conflict) must fail.
	g := DefaultGeometry()
	recv, _ := Build(Tiger(0x40000, g, "recv"))
	zeb, _ := Build(Zebra(0xC0000, g, "zeb"))
	merged, _ := asm.Merge(recv.Prog, zeb.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	if _, err := Calibrate(c, recv, zeb, 20, 5, 4); err == nil {
		t.Error("calibration against a zebra found a signal")
	}
}

func TestFastTigerFasterThanLCPTiger(t *testing.T) {
	g := Geometry{NSets: 4, NWays: 6}
	slow, _ := Build(Tiger(0x40000, g, "slow"))
	fast, _ := Build(FastTiger(0x80000, g, "fast"))
	merged, _ := asm.Merge(slow.Prog, fast.Prog)
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)

	// Compare cold traversal costs: the LCP tiger pays predecoder
	// stalls, the fast tiger does not.
	c.FlushUopCache()
	slowCy, err := slow.Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.FlushUopCache()
	fastCy, err := fast.Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fastCy >= slowCy {
		t.Errorf("fast tiger (%d cycles) not faster than LCP tiger (%d)", fastCy, slowCy)
	}
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultGeometry()
	if g.NSets != 8 || g.NWays != 6 {
		t.Errorf("default geometry %+v, want the paper's 8×6 operating point", g)
	}
	if len(g.TigerSets()) != 8 {
		t.Errorf("tiger sets %v", g.TigerSets())
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	g := Geometry{NSets: 0, NWays: 0}
	if _, err := Build(Tiger(0x40000, g, "bad")); err == nil {
		t.Error("empty geometry accepted")
	}
}

// TestRunLoopRejectsNonPositiveCount: a loop count below 1 would wrap
// the loop register and never halt, so RunLoop must refuse it without
// simulating a cycle.
func TestRunLoopRejectsNonPositiveCount(t *testing.T) {
	r, err := Build(Tiger(0x40000, DefaultGeometry(), "t"))
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(r.Prog)
	for _, iters := range []int64{0, -1} {
		before := c.Cycle()
		if _, err := RunLoop(c, r.Entry, 0, iters); err == nil {
			t.Errorf("RunLoop with %d iterations: no error", iters)
		}
		if c.Cycle() != before {
			t.Errorf("RunLoop with %d iterations ran %d cycles", iters, c.Cycle()-before)
		}
	}
}

// TestRunLoopSibling runs a receiver tiger beside a sender tiger on the
// competitively shared Zen cache: the sibling must retire work for
// thread 0's whole window, and thread 0's result must equal the
// hand-written convention (both loop counts preset, then RunSMT) on an
// identical core. Without a sibling, RunLoop's cycles must equal
// Routine.Run's.
func TestRunLoopSibling(t *testing.T) {
	g := Geometry{NSets: 16, NWays: 6}
	recv, err := Build(Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := Build(FastTiger(0x100000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		t.Fatal(err)
	}
	core := func() *cpu.CPU {
		c := cpu.New(cpu.AMD())
		c.LoadProgram(merged)
		return c
	}
	const iters = 5

	res, err := RunLoop(core(), recv.Entry, send.Entry, iters)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Retired == 0 {
		t.Error("sibling retired nothing during thread 0's window")
	}
	if res[1].Cycles != res[0].Cycles {
		t.Errorf("sibling ran %d of thread 0's %d cycles", res[1].Cycles, res[0].Cycles)
	}

	c := core()
	c.SetReg(0, codegen.LoopReg, iters)
	c.SetReg(1, codegen.LoopReg, 1<<40)
	if want := c.RunSMT(recv.Entry, send.Entry, 50_000_000)[0]; res[0] != want {
		t.Errorf("RunLoop thread 0 = %+v, hand-written RunSMT = %+v", res[0], want)
	}

	single, err := RunLoop(core(), recv.Entry, 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := recv.Run(core(), iters)
	if err != nil {
		t.Fatal(err)
	}
	if single[0].Cycles != cycles {
		t.Errorf("RunLoop took %d cycles, Routine.Run %d", single[0].Cycles, cycles)
	}
}
