package detect

import (
	"fmt"

	"deaduops/internal/perfctr"
)

// Example scores two workloads' counter deltas: a benign hot loop runs
// out of the micro-op cache and scores clean, while a covert channel's
// prime/probe churn forces continual DSB misses and is flagged. The
// paper's caveat holds: such monitors are prone to misclassification
// and mimicry, and an attacker can pace the channel below the bounds,
// trading bandwidth for stealth.
func Example() {
	for _, phase := range []struct {
		name  string
		delta func() (perfctr.Snapshot, error)
	}{
		{"benign loop", benignLoopDelta},
		{"covert channel", conflictAttackDelta},
	} {
		d, err := phase.delta()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-15s %s suspicious=%v\n", phase.name+":", Extract(d), Suspicious(d))
	}
	// Output:
	// benign loop:    penalty/µop=0.000 mite=0.0% switches/kµop=0.0 suspicious=false
	// covert channel: penalty/µop=1.291 mite=43.0% switches/kµop=143.5 suspicious=true
}
