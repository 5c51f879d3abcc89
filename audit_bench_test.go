package deaduops_test

import (
	"sync"
	"testing"

	"deaduops/internal/asm"
	"deaduops/internal/auditd"
	"deaduops/internal/isa"
	"deaduops/internal/staticlint"
)

// The audit-throughput benchmark: findings/s over a 1000-program
// corpus, cold cache vs warm cache — the number the incremental audit
// service (cmd/uoplintd) exists to improve. Cold audits every program
// from scratch; warm re-audits an unchanged corpus against a primed
// cache, the daemon's steady state.

const auditCorpusSize = 1000

var (
	auditCorpusOnce sync.Once
	auditCorpus     []*asm.Program
)

func auditCorpusProgs(b *testing.B) []*asm.Program {
	b.Helper()
	auditCorpusOnce.Do(func() {
		randoms, err := auditd.RandomPrograms(auditCorpusSize)
		if err != nil {
			b.Fatal(err)
		}
		auditCorpus = make([]*asm.Program, len(randoms))
		for i, p := range randoms {
			auditCorpus[i] = p.Prog
		}
	})
	return auditCorpus
}

// auditPass lints the whole corpus against c and returns the finding
// count.
func auditPass(progs []*asm.Program, spec staticlint.Spec, cfg staticlint.Config, c *staticlint.Cache) int {
	findings := 0
	for _, p := range progs {
		r, _ := staticlint.LintCached(p, spec, cfg, c)
		findings += len(r.Findings)
	}
	return findings
}

func BenchmarkAuditCorpus(b *testing.B) {
	progs := auditCorpusProgs(b)
	cfg := staticlint.DefaultConfig()
	// R1 is declared secret so the taint engine has real work and the
	// corpus yields findings to rate.
	spec := staticlint.Spec{SecretRegs: []isa.Reg{isa.R1}}

	b.Run("cold", func(b *testing.B) {
		findings := 0
		for i := 0; i < b.N; i++ {
			findings = auditPass(progs, spec, cfg, staticlint.NewCache())
		}
		if findings == 0 {
			b.Fatal("corpus produced no findings; the throughput metric is vacuous")
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(findings)*float64(b.N)/secs, "findings/s")
		b.ReportMetric(float64(len(progs))*float64(b.N)/secs, "programs/s")
	})

	b.Run("warm", func(b *testing.B) {
		c := staticlint.NewCache()
		auditPass(progs, spec, cfg, c)
		b.ResetTimer()
		findings := 0
		for i := 0; i < b.N; i++ {
			findings = auditPass(progs, spec, cfg, c)
		}
		if findings == 0 {
			b.Fatal("corpus produced no findings; the throughput metric is vacuous")
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(findings)*float64(b.N)/secs, "findings/s")
		b.ReportMetric(float64(len(progs))*float64(b.N)/secs, "programs/s")
	})
}
