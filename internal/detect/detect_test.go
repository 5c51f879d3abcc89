package detect

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
	"deaduops/internal/perfctr"
)

// measure runs a workload phase and returns the counter delta.
func measure(t *testing.T, c *cpu.CPU, entry uint64, iters int64) perfctr.Snapshot {
	t.Helper()
	c.SetReg(0, isa.R14, iters)
	before := c.Counters(0).Snapshot()
	if res := c.Run(0, entry, 10_000_000); res.TimedOut {
		t.Fatal("workload timed out")
	}
	return c.Counters(0).Snapshot().Delta(before)
}

func TestBenignHotLoopScoresClean(t *testing.T) {
	prog, err := codegen.SequentialLoop(0x10000, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	measure(t, c, prog.Entry, 20) // warm
	d := measure(t, c, prog.Entry, 100)
	m := NewMonitor(Thresholds{})
	if m.Suspicious(d) {
		t.Errorf("benign hot loop flagged: %s", Extract(d))
	}
}

func TestConflictAttackTripsMonitor(t *testing.T) {
	// The same-address-space channel's sender/receiver tug-of-war keeps
	// the DSB missing — the signature the monitor looks for.
	g := attack.DefaultGeometry()
	recv, err := attack.Build(attack.Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := attack.Build(attack.Tiger(0x80000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)

	before := c.Counters(0).Snapshot()
	for round := 0; round < 10; round++ {
		if _, err := recv.Run(c, 20); err != nil {
			t.Fatal(err)
		}
		if _, err := send.Run(c, 20); err != nil {
			t.Fatal(err)
		}
	}
	d := c.Counters(0).Snapshot().Delta(before)
	m := NewMonitor(Thresholds{})
	if !m.Suspicious(d) {
		t.Errorf("attack phase not flagged: %s", Extract(d))
	}
}

func TestExtractEmptyDelta(t *testing.T) {
	var zero perfctr.Snapshot
	f := Extract(zero)
	if f.DSBMissPenaltyPerUop != 0 || f.MITEFraction != 0 {
		t.Errorf("empty delta features %+v", f)
	}
}

func TestScoreBoundaries(t *testing.T) {
	m := NewMonitor(Thresholds{})
	if got := m.Score(Features{}); got != 0 {
		t.Errorf("zero features score %d", got)
	}
	hot := Features{DSBMissPenaltyPerUop: 10, MITEFraction: 0.9, SwitchesPerKUop: 500}
	if got := m.Score(hot); got != 3 {
		t.Errorf("hot features score %d", got)
	}
}

func TestThresholdDefaults(t *testing.T) {
	m := NewMonitor(Thresholds{MITEFraction: 0.5})
	// Custom value kept; others defaulted.
	if m.th.MITEFraction != 0.5 {
		t.Error("custom threshold lost")
	}
	if m.th.MissPenaltyPerUop != DefaultThresholds().MissPenaltyPerUop {
		t.Error("default not applied")
	}
}

func TestFeatureString(t *testing.T) {
	s := Features{DSBMissPenaltyPerUop: 1.5, MITEFraction: 0.5, SwitchesPerKUop: 80}.String()
	if s == "" {
		t.Error("empty feature string")
	}
}
