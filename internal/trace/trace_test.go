package trace

import (
	"bytes"
	"strings"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/cpu"
	"deaduops/internal/isa"
)

func TestTracerLogsRetirementAndSource(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R1, 1)
	b.Addi(isa.R1, 2)
	b.Halt()
	prog := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)

	var buf bytes.Buffer
	tr := Attach(c, &buf)
	defer tr.Detach()

	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	out := buf.String()
	if !strings.Contains(out, "movi") || !strings.Contains(out, "halt") {
		t.Errorf("trace missing ops:\n%s", out)
	}
	if tr.Retired != 3 {
		t.Errorf("retired %d macro-ops, want 3", tr.Retired)
	}
	// The cold run decodes every macro-op through the legacy pipeline.
	if strings.Count(out, " mite ") != 3 {
		t.Errorf("cold trace does not label all 3 macro-ops mite:\n%s", out)
	}

	// The warm re-run streams every macro-op from the micro-op cache.
	buf.Reset()
	if res := c.Run(0, prog.Entry, 100000); res.TimedOut {
		t.Fatal("timed out")
	}
	if strings.Count(buf.String(), " dsb ") != 3 {
		t.Errorf("warm trace does not label all 3 macro-ops dsb:\n%s", buf.String())
	}
}

func TestTracerLogsSquashes(t *testing.T) {
	// A data-dependent alternating branch guarantees mispredicts.
	b := asm.New(0x10000)
	b.Label("entry")
	b.Movi(isa.R1, 0)
	b.Movi(isa.R2, 8)
	b.Label("loop")
	b.Mov(isa.R3, isa.R2)
	b.Andi(isa.R3, 1)
	b.Cmpi(isa.R3, 0)
	b.Jcc(isa.EQ, "even")
	b.Addi(isa.R1, 1)
	b.Label("even")
	b.Subi(isa.R2, 1)
	b.Cmpi(isa.R2, 0)
	b.Jcc(isa.NE, "loop")
	b.Halt()
	prog := b.MustBuild()

	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	var buf bytes.Buffer
	tr := Attach(c, &buf)
	defer tr.Detach()
	if res := c.Run(0, prog.Entry, 1000000); res.TimedOut {
		t.Fatal("timed out")
	}
	if tr.Squashes == 0 {
		t.Error("no squash events traced")
	}
	if !strings.Contains(buf.String(), "squash") {
		t.Error("squash line missing from trace")
	}
}

func TestDetachStopsLogging(t *testing.T) {
	b := asm.New(0x10000)
	b.Label("entry")
	b.Nop(1)
	b.Halt()
	prog := b.MustBuild()
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	var buf bytes.Buffer
	tr := Attach(c, &buf)
	tr.Detach()
	c.Run(0, prog.Entry, 100000)
	if buf.Len() != 0 {
		t.Error("detached tracer still logged")
	}
}
