package attack_test

import (
	"testing"

	"deaduops/internal/attack"
	"deaduops/internal/channel"
	"deaduops/internal/cpu"
	"deaduops/internal/transient"
	"deaduops/internal/victim"
)

// TestEveryCalibrationRecordsStats runs every calibrating constructor
// and checks that its threshold came out of the one collector and
// Rounds.Stats: both distributions carry a per-round spread that
// brackets their mean, and the probe unit is recorded.
func TestEveryCalibrationRecordsStats(t *testing.T) {
	cfg := channel.DefaultConfig()
	cases := []struct {
		name       string
		calibrated func() (attack.Threshold, error)
	}{
		{"SameAddressSpace", func() (attack.Threshold, error) {
			ch, err := channel.NewSameAddressSpace(cpu.New(cpu.Intel()), cfg)
			if err != nil {
				return attack.Threshold{}, err
			}
			return ch.Threshold(), nil
		}},
		{"UserKernel", func() (attack.Threshold, error) {
			ch, err := channel.NewUserKernel(cpu.New(cpu.Intel()), cfg)
			if err != nil {
				return attack.Threshold{}, err
			}
			return ch.Threshold(), nil
		}},
		{"CrossSMT", func() (attack.Threshold, error) {
			ch, err := channel.NewCrossSMT(cpu.New(cpu.AMD()), cfg)
			if err != nil {
				return attack.Threshold{}, err
			}
			return ch.Threshold(), nil
		}},
		{"Variant1", func() (attack.Threshold, error) {
			v, err := transient.NewVariant1(cpu.New(cpu.Intel()))
			if err != nil {
				return attack.Threshold{}, err
			}
			return v.Threshold(), nil
		}},
		{"Variant2", func() (attack.Threshold, error) {
			v, err := transient.NewVariant2(cpu.New(cpu.Intel()), victim.WithLFENCE)
			if err != nil {
				return attack.Threshold{}, err
			}
			if err := v.Calibrate(4); err != nil {
				return attack.Threshold{}, err
			}
			return v.Threshold(), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			th, err := tc.calibrated()
			if err != nil {
				t.Fatal(err)
			}
			if th.HitMin > th.HitMean || th.HitMean > th.HitMax {
				t.Errorf("hit mean outside its spread: %s", th.Spread())
			}
			if th.MissMin > th.MissMean || th.MissMean > th.MissMax {
				t.Errorf("miss mean outside its spread: %s", th.Spread())
			}
			if th.HitMax <= 0 || th.MissMax <= 0 {
				t.Errorf("spread not recorded: %+v", th)
			}
			if th.ProbeIters <= 0 {
				t.Errorf("probe unit not recorded: %+v", th)
			}
		})
	}
}
