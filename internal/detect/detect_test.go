package detect

import (
	"math"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

// benignLoopDelta measures a warm hot loop over 16 sequential regions,
// which runs almost entirely out of the micro-op cache.
func benignLoopDelta() (perfctr.Snapshot, error) {
	prog, err := codegen.SequentialLoop(0x10000, 16, 3)
	if err != nil {
		return perfctr.Snapshot{}, err
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	if _, err := attack.RunLoop(c, prog.Entry, 0, 20); err != nil { // warm
		return perfctr.Snapshot{}, err
	}
	res, err := attack.RunLoop(c, prog.Entry, 0, 100)
	return res[0].Counters, err
}

// conflictAttackDelta measures ten prime/probe rounds of the
// same-address-space channel: the sender/receiver tug-of-war keeps the
// DSB missing — the signature the monitor looks for.
func conflictAttackDelta() (perfctr.Snapshot, error) {
	g := attack.DefaultGeometry()
	recv, err := attack.Build(attack.Tiger(0x40000, g, "recv"))
	if err != nil {
		return perfctr.Snapshot{}, err
	}
	send, err := attack.Build(attack.Tiger(0x80000, g, "send"))
	if err != nil {
		return perfctr.Snapshot{}, err
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		return perfctr.Snapshot{}, err
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	before := c.Counters(0).Snapshot()
	for round := 0; round < 10; round++ {
		if _, err := recv.Run(c, 20); err != nil {
			return perfctr.Snapshot{}, err
		}
		if _, err := send.Run(c, 20); err != nil {
			return perfctr.Snapshot{}, err
		}
	}
	return c.Counters(0).Snapshot().Delta(before), nil
}

func TestBenignHotLoopScoresClean(t *testing.T) {
	d, err := benignLoopDelta()
	if err != nil {
		t.Fatal(err)
	}
	if Suspicious(d) {
		t.Errorf("benign hot loop flagged: %s", Extract(d))
	}
}

func TestConflictAttackTripsMonitor(t *testing.T) {
	d, err := conflictAttackDelta()
	if err != nil {
		t.Fatal(err)
	}
	if !Suspicious(d) {
		t.Errorf("attack phase not flagged: %s", Extract(d))
	}
}

// TestExtractCountsLSDUops is the regression for a denominator that
// left out the loop stream detector. A cold LSD-enabled two-NOP loop
// delivers almost all of its µops from the LSD; its handful of
// cold-start MITE µops and switches must read as a tiny share, not as
// a conflict attack.
func TestExtractCountsLSDUops(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Label("loop")
	b.Nop(4)
	b.Nop(4)
	codegen.LoopTail(b, "loop")
	prog := b.MustBuild()
	cfg := cpu.Intel()
	cfg.Frontend.LSDCapacity = 64
	c := cpu.New(cfg)
	c.LoadProgram(prog)
	res, err := attack.RunLoop(c, prog.Entry, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	d := res[0].Counters
	if d.Get(perfctr.LSDUops) == 0 {
		t.Fatal("loop never streamed from the LSD")
	}
	if f := Extract(d); f.MITEFraction > 0.01 || Suspicious(d) {
		t.Errorf("LSD loop features %s (suspicious=%v); want MITE ≤ 1%% and clean", f, Suspicious(d))
	}
}

func TestExtractEmptyDelta(t *testing.T) {
	var zero perfctr.Snapshot
	f := Extract(zero)
	if f.DSBMissPenaltyPerUop != 0 || f.MITEFraction != 0 {
		t.Errorf("empty delta features %+v", f)
	}
}

// TestScoreBoundaries pins each bound as strict: a feature exactly at
// its bound does not trip its detector, and one just above does.
func TestScoreBoundaries(t *testing.T) {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, tc := range []struct {
		name      string
		at, above Features
	}{
		{"penalty", Features{DSBMissPenaltyPerUop: MissPenaltyPerUopBound}, Features{DSBMissPenaltyPerUop: up(MissPenaltyPerUopBound)}},
		{"mite", Features{MITEFraction: MITEFractionBound}, Features{MITEFraction: up(MITEFractionBound)}},
		{"switches", Features{SwitchesPerKUop: SwitchesPerKUopBound}, Features{SwitchesPerKUop: up(SwitchesPerKUopBound)}},
	} {
		if got := Score(tc.at); got != 0 {
			t.Errorf("%s at its bound scores %d, want 0", tc.name, got)
		}
		if got := Score(tc.above); got != 1 {
			t.Errorf("%s just above its bound scores %d, want 1", tc.name, got)
		}
	}
	hot := Features{DSBMissPenaltyPerUop: 10, MITEFraction: 0.9, SwitchesPerKUop: 500}
	if got := Score(hot); got != 3 {
		t.Errorf("hot features score %d", got)
	}
}

// TestThresholdDefaults pins the calibrated values of the three bounds.
func TestThresholdDefaults(t *testing.T) {
	for _, tc := range []struct {
		name      string
		at, above Features
	}{
		{"penalty 0.5", Features{DSBMissPenaltyPerUop: 0.5}, Features{DSBMissPenaltyPerUop: 0.501}},
		{"mite 25%", Features{MITEFraction: 0.25}, Features{MITEFraction: 0.251}},
		{"switches 50/kµop", Features{SwitchesPerKUop: 50}, Features{SwitchesPerKUop: 50.1}},
	} {
		if Score(tc.at) != 0 || Score(tc.above) != 1 {
			t.Errorf("%s: at scores %d, above scores %d; want 0 and 1", tc.name, Score(tc.at), Score(tc.above))
		}
	}
}

func TestFeatureString(t *testing.T) {
	s := Features{DSBMissPenaltyPerUop: 1.5, MITEFraction: 0.5, SwitchesPerKUop: 80}.String()
	if s == "" {
		t.Error("empty feature string")
	}
}
