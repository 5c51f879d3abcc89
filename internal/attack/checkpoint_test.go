package attack

import (
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
)

// calibrationRig builds the standard receiver/sender tiger pair on one
// core — the setup TestCalibrate uses.
func calibrationRig(t *testing.T) (*cpu.CPU, *Routine, *Routine) {
	t.Helper()
	g := DefaultGeometry()
	recv, err := Build(Tiger(0x40000, g, "recv"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := Build(Tiger(0x80000, g, "send"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(merged)
	return c, recv, send
}

// TestCheckpointedProbeEquals pins checkpoint/restore at the attack
// level: a probe after restoring the primed-core snapshot is
// byte-identical in cycles to a probe right after the prime the
// snapshot captured — and stays so on every later fork, even after a
// sender trashed the receiver's sets in between.
func TestCheckpointedProbeEquals(t *testing.T) {
	c, recv, send := calibrationRig(t)
	const primeIters, probeIters = 20, 5

	if _, err := recv.Run(c, primeIters); err != nil {
		t.Fatal(err)
	}
	var ck cpu.Checkpoint
	c.Checkpoint(&ck)
	want, err := recv.Run(c, probeIters)
	if err != nil {
		t.Fatal(err)
	}

	for fork := 0; fork < 3; fork++ {
		c.Restore(&ck)
		got, err := recv.Run(c, probeIters)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fork %d: probe after restore took %d cycles, probe after prime took %d", fork, got, want)
		}
		// Dirty the core before the next fork so the restore has real
		// state to undo.
		if _, err := send.Run(c, primeIters); err != nil {
			t.Fatal(err)
		}
	}
}
