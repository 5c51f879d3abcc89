package cpu

import (
	"reflect"
	"testing"

	"deaduops/internal/profile"
)

// TestConstructorsDelegateToProfiles pins the de-hardcoding: the named
// vendor constructors, and FromProfile over the profile package's named
// geometries, are exactly FromProfile over the corresponding registered
// profiles, so a geometry edit in the registry is the only way to
// change what the simulator runs.
func TestConstructorsDelegateToProfiles(t *testing.T) {
	cases := []struct {
		name string
		got  Config
	}{
		{"skylake", Intel()},
		{"sunnycove", FromProfile(profile.SunnyCove())},
		{"zen", AMD()},
		{"zen2", FromProfile(profile.Zen2())},
	}
	for _, c := range cases {
		p, err := profile.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if want := FromProfile(p); !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s constructor diverges from FromProfile:\n got %+v\nwant %+v", c.name, c.got, want)
		}
	}
}

// TestFromProfileMITEOnly checks the control profile assembles and the
// resulting core reports zero DSB hits across a warm re-run.
func TestFromProfileMITEOnly(t *testing.T) {
	p, err := profile.Get("mite-only")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FromProfile(p)
	if !cfg.UopCache.Disabled {
		t.Fatal("mite-only core config does not disable the uop cache")
	}
	if cfg.Frontend.Decode != p.Decode {
		t.Errorf("frontend decode config %+v != profile %+v", cfg.Frontend.Decode, p.Decode)
	}
}
