package experiments

import (
	"fmt"
	"strings"
	"testing"

	"deaduops/internal/profile"
)

func TestFig3aCapacityKnee(t *testing.T) {
	f := defaultRun(t, "fig3a").(*Figure)
	y := f.Series[0].Y
	x := f.Series[0].X
	at := func(region float64) float64 {
		for i := range x {
			if x[i] == region {
				return y[i]
			}
		}
		t.Fatalf("no point at %v", region)
		return 0
	}
	if v := at(128); v > 5 {
		t.Errorf("MITE µops at 128 regions = %.1f, want ≈0", v)
	}
	if v := at(240); v > 10 {
		t.Errorf("MITE µops at 240 regions = %.1f, want ≈0", v)
	}
	if v := at(320); v < 100 {
		t.Errorf("MITE µops at 320 regions = %.1f, want large (capacity exceeded)", v)
	}
}

func TestFig3bAssociativityKnee(t *testing.T) {
	f := defaultRun(t, "fig3b").(*Figure)
	y := f.Series[0].Y
	// Ways 1..8 fit; 9+ overflow the set.
	for i := 0; i < 8; i++ {
		if y[i] > 1 {
			t.Errorf("ways=%d: MITE µops %.2f, want ≈0", i+1, y[i])
		}
	}
	if y[8] <= y[7] {
		t.Errorf("no rise at 9 ways: %.2f vs %.2f", y[8], y[7])
	}
	if y[14] < 4 {
		t.Errorf("ways=15: MITE µops %.2f, want several per iteration", y[14])
	}
}

func TestFig4PlacementPlateaus(t *testing.T) {
	f := defaultRun(t, "fig4").(*Figure)
	series := map[string]Series{}
	for _, s := range f.Series {
		series[s.Label] = s
	}
	// 19+ µops per region exceed the 18-µop (3-line) cap: never cached,
	// for every curve.
	for _, label := range []string{"2 regions", "4 regions", "8 regions"} {
		s, ok := series[label]
		if !ok {
			t.Fatalf("missing series %q", label)
		}
		if v := s.Y[19]; v > 2 {
			t.Errorf("%s @19 µops: DSB %.1f, want ≈0 (uncacheable)", label, v)
		}
	}
	// Two regions of 18 µops (6 lines) fit the 8-way set and stay
	// cached; with 4 or 8 regions the same size thrashes.
	if v := series["2 regions"].Y[17]; v < 10 {
		t.Errorf("2 regions @18 µops: DSB %.1f, want cached", v)
	}
	// The 8-region curve collapses beyond 6 µops (8 × 2 lines > 8 ways),
	// while the 2-region curve keeps rising.
	s8 := series["8 regions"]
	if s8.Y[6] >= s8.Y[5] {
		t.Errorf("8 regions: no drop after 6 µops (%.1f → %.1f)", s8.Y[5], s8.Y[6])
	}
	s2 := series["2 regions"]
	if s2.Y[17] < s2.Y[5] {
		t.Errorf("2 regions: curve should keep rising to 18 µops")
	}
}

func TestFig5ReplacementDiagonal(t *testing.T) {
	// The registered runner flattens the grid into one series per
	// main-loop count.
	f := defaultRun(t, "fig5").(*Figure)
	cell := func(main, evict int) float64 {
		return f.Series[main-1].Y[evict]
	}
	// No evictor: full streaming (48 µops + tail).
	if v := cell(6, 0); v < 40 {
		t.Errorf("main=6 evict=0: %.0f, want ≈48+", v)
	}
	// A hot main loop survives a cooler evictor…
	if v := cell(8, 4); v < 40 {
		t.Errorf("main=8 evict=4: %.0f, want retained", v)
	}
	// …but a hotter evictor displaces a cool main loop.
	if v := cell(1, 6); v > 10 {
		t.Errorf("main=1 evict=6: %.0f, want displaced", v)
	}
	if v := cell(2, 8); v > 10 {
		t.Errorf("main=2 evict=8: %.0f, want displaced", v)
	}
}

func TestFig6PartitionHalvesCapacity(t *testing.T) {
	f := defaultRun(t, "fig6a").(*Figure)
	var smt, st Series
	for _, s := range f.Series {
		switch s.Label {
		case "SMT -- T1 with T2":
			smt = s
		case "Single-Thread T1":
			st = s
		}
	}
	knee := func(s Series) float64 {
		base := s.Y[0]
		for i := range s.X {
			if s.Y[i] > base+200 {
				return s.X[i]
			}
		}
		return s.X[len(s.X)-1]
	}
	kSMT, kST := knee(smt), knee(st)
	if kSMT >= kST {
		t.Errorf("SMT knee %v not below single-thread knee %v", kSMT, kST)
	}
	ratio := kST / kSMT
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("capacity ratio %.2f, want ≈2 (static halving)", ratio)
	}
}

func TestFig7aNoCrossThreadContention(t *testing.T) {
	f := defaultRun(t, "fig7a").(*Figure)
	for i, y := range f.Series[0].Y {
		// Streaming 48 µops/iteration: any real contention would show
		// hundreds of MITE µops per iteration.
		if y > 24 {
			t.Errorf("set %d: %.1f MITE µops/iter — partitions are leaking", i, y)
		}
	}
}

func TestFig7bSixteenSetsPerThread(t *testing.T) {
	f := defaultRun(t, "fig7b").(*Figure)
	var smt, st Series
	for _, s := range f.Series {
		if s.Label == "SMT" {
			smt = s
		} else {
			st = s
		}
	}
	// Single thread streams all 32 8-way regions; SMT only 16.
	if st.Y[31] > 50 {
		t.Errorf("single-thread @32 regions: %.1f MITE µops, want ≈0", st.Y[31])
	}
	if smt.Y[23] < smt.Y[15]+100 {
		t.Errorf("SMT no knee after 16 regions: y[16]=%.1f y[24]=%.1f", smt.Y[15], smt.Y[23])
	}
}

func TestFig8MutualExclusion(t *testing.T) {
	m := defaultRun(t, "fig8").(*OccupancyMap)
	if len(m.Overlap) != 0 {
		t.Errorf("tiger and zebra overlap in sets %v", m.Overlap)
	}
	if len(m.TigerOcc) != 8 || len(m.ZebraOcc) != 8 {
		t.Errorf("occupancy: tiger %d sets, zebra %d sets, want 8 each",
			len(m.TigerOcc), len(m.ZebraOcc))
	}
	for set, n := range m.TigerOcc {
		if n != 4 {
			t.Errorf("tiger set %d holds %d ways, want 4", set, n)
		}
	}
}

func TestFig10FenceMatrix(t *testing.T) {
	f := defaultRun(t, "fig10").(*Figure)
	for _, s := range f.Series {
		mean := 0.0
		for _, y := range s.Y {
			mean += y
		}
		mean /= float64(len(s.Y))
		wantSignal := !strings.Contains(s.Label, "cpuid")
		hasSignal := mean > 20
		if hasSignal != wantSignal {
			t.Errorf("%s: mean gap %.0f cycles, want signal=%v", s.Label, mean, wantSignal)
		}
	}
}

func TestTable1AllChannelsWork(t *testing.T) {
	tab := defaultRun(t, "table1").(*Table)
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "100.00%" {
			t.Errorf("%s: total corruption", row[0])
		}
	}
}

func TestTable2Contrast(t *testing.T) {
	tab := defaultRun(t, "table2").(*Table)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	// Both rows must have leaked without bit errors.
	for _, row := range tab.Rows {
		if row[5] != "0" {
			t.Errorf("%s: %s bits wrong", row[0], row[5])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig4", "fig5", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig8", "fig9", "fig10", "table1", "table2",
		"mitigations", "capacity", "invisispec", "leakpredict",
		"probemodel", "alignchannel", "profilematrix", "ablations",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

// TestAblationsClaims pins the ablation table's claims: the hotness
// cap must be small but nonzero for a usable channel, a costlier
// DSB→MITE switch never weakens the signal, the paper's LCP padding
// more than doubles the contrast of a plain tiger, and an enabled loop
// stream detector all but stops a locked loop probing the µop cache.
func TestAblationsClaims(t *testing.T) {
	rows, err := ablationRows(Options{})
	if err != nil {
		t.Fatal(err)
	}
	byKnob := map[string][]ablation{}
	for _, r := range rows {
		byKnob[r.knob] = append(byKnob[r.knob], r)
	}
	caps, pens, pad, lsd := byKnob["hotness cap"], byKnob["switch penalty"], byKnob["tiger padding"], byKnob[lsdKnob]
	if len(caps) != 4 || len(pens) != 3 || len(pad) != 2 || len(lsd) != 2 {
		t.Fatalf("rows per knob %d/%d/%d/%d, want 4/3/2/2", len(caps), len(pens), len(pad), len(lsd))
	}
	for _, r := range caps[:3] {
		if r.calErr != nil {
			t.Errorf("hotness cap %s does not calibrate: %v", r.setting, r.calErr)
		}
	}
	if err := caps[3].calErr; err == nil || !strings.Contains(err.Error(), "no timing signal") {
		t.Errorf("hotness cap 64: calibration error %v, want no timing signal", err)
	}
	for i := 1; i < len(pens); i++ {
		if pens[i].ratio() < pens[i-1].ratio() {
			t.Errorf("switch penalty %s ratio %.2f below penalty %s's %.2f",
				pens[i].setting, pens[i].ratio(), pens[i-1].setting, pens[i-1].ratio())
		}
	}
	if lcp, plain := pad[0].ratio(), pad[1].ratio(); lcp < 2*plain {
		t.Errorf("LCP tiger ratio %.2f, want at least 2× the plain tiger's %.2f", lcp, plain)
	}
	if off, on := lsd[0].lookups, lsd[1].lookups; off == 0 || 100*on > off {
		t.Errorf("µop-cache lookups %d with the LSD on, want at most 1%% of %d with it off", on, off)
	}
}

// TestAlignChannelTable pins the alignment-channel validation table:
// every row inside the differential contract, and exactly one
// direction per victim carrying the straddling jccs whose stall the
// channel transmits through.
func TestAlignChannelTable(t *testing.T) {
	tab := defaultRun(t, "alignchannel").(*Table)
	if want := 2 * len(alignChannelSeeds); len(tab.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), want)
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		taken, fall := tab.Rows[i], tab.Rows[i+1]
		if (taken[2] == "0") == (fall[2] == "0") {
			t.Errorf("%s: straddling jccs %s/%s — exactly one direction must straddle",
				taken[0], taken[2], fall[2])
		}
	}
}

// TestProfileMatrixTable pins the cross-microarchitecture table: one
// row per registered profile, the no-DSB control showing zero refill
// signal and the no-channel mark in every µop-cache-dependent column
// while its alignment asymmetry (Skylake decode) survives, and the
// zero-penalty AMD decoders showing no alignment channel while their
// refill, switch, and covert-channel columns carry real signal.
func TestProfileMatrixTable(t *testing.T) {
	tab := defaultRun(t, "profilematrix").(*Table)
	if want := len(profile.All()); len(tab.Rows) != want {
		t.Fatalf("got %d rows, want %d (one per profile)", len(tab.Rows), want)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	const (
		colRefill = 2
		colMargin = 4
		colAlign  = 5
		colSwitch = 6
		colChan   = 7
	)
	mite, ok := byName["mite-only"]
	if !ok {
		t.Fatal("no mite-only control row")
	}
	if mite[colRefill] != "0c/0c" {
		t.Errorf("mite-only refill column %q, want 0c/0c", mite[colRefill])
	}
	for _, col := range []int{colMargin, colSwitch, colChan} {
		if mite[col] != NoChannelMark {
			t.Errorf("mite-only column %d is %q, want %q", col, mite[col], NoChannelMark)
		}
	}
	if mite[colAlign] == NoChannelMark || mite[colAlign] == "+0c" {
		t.Errorf("mite-only alignment column %q — the decode-side channel must survive", mite[colAlign])
	}
	for _, name := range []string{"zen", "zen2"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if row[colAlign] != NoChannelMark {
			t.Errorf("%s alignment column %q, want %q (penalty-free decoder)", name, row[colAlign], NoChannelMark)
		}
		for _, col := range []int{colMargin, colSwitch, colChan} {
			if row[col] == NoChannelMark {
				t.Errorf("%s column %d shows no channel on a DSB profile", name, col)
			}
		}
		if row[colRefill] == "0c/0c" {
			t.Errorf("%s refill column shows no signal", name)
		}
	}
	sky, ok := byName["skylake"]
	if !ok {
		t.Fatal("no skylake row")
	}
	for col := colMargin; col <= colChan; col++ {
		if sky[col] == NoChannelMark {
			t.Errorf("skylake column %d shows no channel", col)
		}
	}
}

func TestRenderers(t *testing.T) {
	fig := &Figure{ID: "x", Title: "t", XAxis: "a", YAxis: "b",
		Series: []Series{{Label: "s", X: []float64{1, 2}, Y: []float64{3, 4}}}}
	if out := fig.Render(); !strings.Contains(out, "1\t3") {
		t.Errorf("figure render: %q", out)
	}
	grid := &Grid{ID: "g", XVals: []int{0, 1}, YVals: []int{1},
		Cell: [][]float64{{5, 6}}}
	if out := grid.Render(); !strings.Contains(out, "5") {
		t.Errorf("grid render: %q", out)
	}
	tab := &Table{ID: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if out := tab.Render(); !strings.Contains(out, "a") || !strings.Contains(out, "1") {
		t.Errorf("table render: %q", out)
	}
}

func TestPayloadDeterministic(t *testing.T) {
	a := testPayload(16, 42)
	b := testPayload(16, 42)
	c := testPayload(16, 43)
	if string(a) != string(b) {
		t.Error("same seed differs")
	}
	if string(a) == string(c) {
		t.Error("different seeds agree")
	}
}

func TestMitigationMatrix(t *testing.T) {
	tab := defaultRun(t, "mitigations").(*Table)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if byName["none"][1] != "open" {
		t.Error("baseline user/kernel channel not open")
	}
	for _, m := range []string{"flush-on-switch", "privilege-partition"} {
		if byName[m][1] != "CLOSED" {
			t.Errorf("%s did not close the user/kernel channel", m)
		}
		// The paper's caveat: variant-1 (user-only) survives both.
		if byName[m][4] != "open" {
			t.Errorf("%s unexpectedly closed variant-1", m)
		}
	}
}

func TestCapacityKneesTrackGenerations(t *testing.T) {
	tab := defaultRun(t, "capacity").(*Table)
	want := map[string]int{
		"Intel Skylake/Coffee Lake": 256,
		"Intel Sunny Cove":          384,
		"AMD Zen":                   256,
		"AMD Zen 2":                 512,
	}
	for _, row := range tab.Rows {
		lines := want[row[0]]
		var knee int
		if _, err := fmt.Sscan(row[3], &knee); err != nil {
			t.Fatalf("%s: knee %q", row[0], row[3])
		}
		// The knee must land within one sweep step (8) of the line
		// capacity.
		if knee < lines || knee > lines+16 {
			t.Errorf("%s: knee %d, want ≈%d", row[0], knee, lines)
		}
	}
}

func TestInvisibleSpeculationPenetrated(t *testing.T) {
	tab := defaultRun(t, "invisispec").(*Table)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	base, def := tab.Rows[0], tab.Rows[1]
	if base[1] != "leaks" || base[2] != "LEAKS" {
		t.Errorf("baseline row %v: both variants should leak", base)
	}
	// §VII: invisible speculation blocks the LLC disclosure primitive
	// but not the µop-cache one.
	if def[1] != "CLOSED" {
		t.Errorf("invisible speculation did not block classic Spectre: %v", def)
	}
	if def[2] != "LEAKS" {
		t.Errorf("invisible speculation blocked the µop-cache variant: %v", def)
	}
}

func TestFig9TuningShapes(t *testing.T) {
	f := defaultRun(t, "fig9").(*Figure)
	series := map[string]Series{}
	for _, s := range f.Series {
		series[s.Label] = s
	}
	// Bandwidth falls monotonically as probed sets grow.
	bw := series["bandwidth-vs-sets"].Y
	for i := 1; i < len(bw); i++ {
		if bw[i] >= bw[i-1] {
			t.Errorf("bandwidth-vs-sets not decreasing at %d: %v", i, bw)
			break
		}
	}
	// The paper's operating point (8 sets, 6 ways, 5 samples) is
	// error-free.
	errSets := series["error-vs-sets"]
	for i, x := range errSets.X {
		if x == 8 && errSets.Y[i] != 0 {
			t.Errorf("8-set error rate %v", errSets.Y[i])
		}
	}
	// Probing 6+ of the 8 ways transmits cleanly; fewer leaves the
	// sender room to dodge the receiver.
	errWays := series["error-vs-ways"]
	for i, x := range errWays.X {
		if x >= 6 && errWays.Y[i] > 0.05 {
			t.Errorf("ways=%v error %v", x, errWays.Y[i])
		}
	}
	// More samples cost bandwidth.
	bws := series["bandwidth-vs-samples"].Y
	if bws[len(bws)-1] >= bws[0] {
		t.Errorf("bandwidth-vs-samples not decreasing: %v", bws)
	}
}
