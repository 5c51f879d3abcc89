package experiments

import (
	"fmt"

	"deaduops/internal/asm"
	"deaduops/internal/attack"
	"deaduops/internal/channel"
	"deaduops/internal/codegen"
	"deaduops/internal/cpu"
	"deaduops/internal/perfctr"
)

func init() {
	Registry["ablations"] = func(o Options) (Renderable, error) { return Ablations(o) }
}

// ablation is one row of the ablation table. Signal rows (hotness cap,
// switch penalty, tiger padding) carry the calibration statistics and
// Rounds.Threshold's verdict; LSD rows carry the front end's µop-cache
// traffic over the locked loop.
type ablation struct {
	knob, setting string

	th     attack.Threshold
	calErr error

	lookups, dsbUops uint64
}

// ratio is the channel's raw signal strength: miss over hit probe time.
func (r ablation) ratio() float64 { return r.th.MissMean / r.th.HitMean }

// ablationPoint is one row to measure on its own core.
type ablationPoint struct {
	knob, setting string
	measure       func(a *cpu.Arena) (ablation, error)
}

// Ablations quantifies the modelling and attack-design choices the
// channels depend on: the hotness-capped replacement policy (§III,
// Fig 5), the DSB→MITE switch penalty, the paper's LCP-padded tigers
// (§IV), and the loop stream detector Skylake ships disabled (erratum
// SKL150). The first three report the same-address-space channel's
// miss/hit probe ratio from one calibration protocol; the LSD rows
// report how often a small hot loop still looks up the µop cache.
func Ablations(o Options) (*Table, error) {
	rows, err := ablationRows(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablations",
		Title:   "Design-choice ablations: channel signal and µop-cache traffic",
		Columns: []string{"Knob", "Setting", "Measured"},
	}
	for _, r := range rows {
		cell := fmt.Sprintf("miss/hit %.2f (hit %.0f, miss %.0f cycles)", r.ratio(), r.th.HitMean, r.th.MissMean)
		switch {
		case r.knob == lsdKnob:
			cell = fmt.Sprintf("%d µop-cache lookups, %d DSB µops", r.lookups, r.dsbUops)
		case r.calErr != nil:
			cell = "no signal: " + cell
		}
		t.Rows = append(t.Rows, []string{r.knob, r.setting, cell})
	}
	return t, nil
}

const lsdKnob = "loop stream detector"

// ablationRows measures every ablation point, one core per point.
func ablationRows(o Options) ([]ablation, error) {
	pts := ablationPoints()
	return sweep(o, len(pts), func(a *cpu.Arena, i int) (ablation, error) {
		r, err := pts[i].measure(a)
		r.knob, r.setting = pts[i].knob, pts[i].setting
		return r, err
	})
}

func ablationPoints() []ablationPoint {
	def := cpu.Intel()
	setting := func(v, model int) string {
		if v == model {
			return fmt.Sprintf("%d (model)", v)
		}
		return fmt.Sprint(v)
	}
	var pts []ablationPoint
	for _, hc := range []int{1, 2, 8, 64} {
		cfg := cpu.Intel()
		cfg.UopCache.HotnessMax = hc
		pts = append(pts, ablationPoint{"hotness cap", setting(hc, def.UopCache.HotnessMax),
			signalAblation(cfg, attack.Tiger)})
	}
	for _, pen := range []int{0, 1, 4} {
		cfg := cpu.Intel()
		cfg.UopCache.SwitchPenalty = pen
		pts = append(pts, ablationPoint{"switch penalty", setting(pen, def.UopCache.SwitchPenalty),
			signalAblation(cfg, attack.Tiger)})
	}
	pts = append(pts,
		ablationPoint{"tiger padding", "LCP (paper)", signalAblation(def, attack.Tiger)},
		ablationPoint{"tiger padding", "plain", signalAblation(def, attack.FastTiger)})
	for _, lsd := range []int{0, 64} {
		name := "off (SKL150, model)"
		if lsd > 0 {
			name = fmt.Sprintf("%d µops", lsd)
		}
		pts = append(pts, ablationPoint{lsdKnob, name, lsdAblation(lsd)})
	}
	return pts
}

// signalAblation calibrates a receiver tiger against a conflicting
// sender tiger on cfg, both generated by tiger over the default
// geometry, with the same-address-space channel's prime, probe and
// round counts.
func signalAblation(cfg cpu.Config, tiger func(uint64, attack.Geometry, string) *codegen.ChainSpec) func(*cpu.Arena) (ablation, error) {
	return func(a *cpu.Arena) (ablation, error) {
		ch := channel.DefaultConfig()
		recv, err := attack.Build(tiger(0x40000, ch.Geometry, "recv"))
		if err != nil {
			return ablation{}, err
		}
		send, err := attack.Build(tiger(0x80000, ch.Geometry, "send"))
		if err != nil {
			return ablation{}, err
		}
		merged, err := asm.Merge(recv.Prog, send.Prog)
		if err != nil {
			return ablation{}, err
		}
		c := cpu.NewWith(cfg, a)
		c.LoadProgram(merged)
		rounds, err := attack.MeasureRounds(c, recv, func() error {
			_, err := send.Run(c, channel.PrimeIters)
			return err
		}, channel.PrimeIters, ch.ProbeIters, channel.CalibrationRounds)
		if err != nil {
			return ablation{}, err
		}
		_, calErr := rounds.Threshold()
		return ablation{th: rounds.Stats(), calErr: calErr}, nil
	}
}

// lsdAblation runs a small hot loop (two NOPs and the loop branch) for
// 1000 iterations on a warm, trained core with the loop stream
// detector sized lsd µops (0 disables it) and counts the micro-op
// cache lookups and DSB-delivered µops of that run.
func lsdAblation(lsd int) func(*cpu.Arena) (ablation, error) {
	return func(a *cpu.Arena) (ablation, error) {
		b := asm.New(0x10000)
		b.Label("entry")
		b.Label("loop")
		b.Nop(4)
		b.Nop(4)
		codegen.LoopTail(b, "loop")
		prog, err := b.Build()
		if err != nil {
			return ablation{}, err
		}
		cfg := cpu.Intel()
		cfg.Frontend.LSDCapacity = lsd
		c := cpu.NewWith(cfg, a)
		c.LoadProgram(prog)
		// Warm and train with 100 traversals, then measure 1000.
		if _, err := attack.RunLoop(c, prog.Entry, 0, 100); err != nil {
			return ablation{}, fmt.Errorf("experiments: LSD loop (capacity %d): %w", lsd, err)
		}
		before := c.UopCache().Stats().Lookups
		res, err := attack.RunLoop(c, prog.Entry, 0, 1000)
		if err != nil {
			return ablation{}, fmt.Errorf("experiments: LSD loop (capacity %d): %w", lsd, err)
		}
		return ablation{
			lookups: c.UopCache().Stats().Lookups - before,
			dsbUops: res[0].Counters.Get(perfctr.DSBUops),
		}, nil
	}
}
