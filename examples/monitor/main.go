// Monitor demo (§VIII): a performance-counter-based detector watches
// workloads' micro-op cache behaviour. Benign hot loops run almost
// entirely out of the micro-op cache; the covert channel's
// prime/evict/probe churn forces continual DSB misses, which the
// monitor flags.
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/detect"
	"deaduops/internal/isa"
)

func main() {
	m := detect.NewMonitor(detect.Thresholds{})

	// --- A benign hot loop ----------------------------------------------
	prog, err := codegen.SequentialLoop(0x10000, 16, 3)
	if err != nil {
		log.Fatal(err)
	}
	c := cpu.New(cpu.Intel())
	c.LoadProgram(prog)
	c.SetReg(0, isa.R14, 20)
	c.Run(0, prog.Entry, 1_000_000) // warm
	before := c.Counters(0).Snapshot()
	c.SetReg(0, isa.R14, 200)
	c.Run(0, prog.Entry, 10_000_000)
	benign := c.Counters(0).Snapshot().Delta(before)
	fmt.Printf("benign loop:   %s → suspicious=%v\n",
		detect.Extract(benign), m.Suspicious(benign))

	// --- A covert-channel phase ------------------------------------------
	g := attack.DefaultGeometry()
	recv, err := attack.Build(attack.Tiger(0x40000, g, "recv"))
	if err != nil {
		log.Fatal(err)
	}
	send, err := attack.Build(attack.Tiger(0x80000, g, "send"))
	if err != nil {
		log.Fatal(err)
	}
	merged, err := asm.Merge(recv.Prog, send.Prog)
	if err != nil {
		log.Fatal(err)
	}
	ac := cpu.New(cpu.Intel())
	ac.LoadProgram(merged)
	before = ac.Counters(0).Snapshot()
	for round := 0; round < 10; round++ {
		if _, err := recv.Run(ac, 20); err != nil {
			log.Fatal(err)
		}
		if _, err := send.Run(ac, 20); err != nil {
			log.Fatal(err)
		}
	}
	attackDelta := ac.Counters(0).Snapshot().Delta(before)
	fmt.Printf("covert channel: %s → suspicious=%v\n",
		detect.Extract(attackDelta), m.Suspicious(attackDelta))

	fmt.Println("\nthe paper's caveat: such monitors are prone to misclassification")
	fmt.Println("and mimicry — an attacker can pace the channel below the threshold,")
	fmt.Println("trading bandwidth for stealth.")
}
