package staticlint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deaduops/internal/profile"
	"deaduops/internal/victim"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/cachekeys.golden")

// TestCacheKeysGolden pins the cache keys a long-lived uoplintd pool
// hands out: configFingerprint of every profile's analyzer config, with
// and without the checker selection, and reportKey of every victim
// fixture under its secret spec and every profile. A refactor of the
// configurations must leave these bytes alone; a deliberate keying
// change regenerates the golden with -update.
func TestCacheKeysGolden(t *testing.T) {
	var b strings.Builder
	lay := victim.DefaultLayout()
	spec := fixtureSpec(lay)
	for _, p := range profile.All() {
		cfg := ConfigForProfile(p)
		for _, withCheckers := range []bool{false, true} {
			fmt.Fprintf(&b, "config %s checkers=%v %x\n", p.Name, withCheckers, configFingerprint(cfg, withCheckers))
		}
		for _, fx := range victim.Fixtures(lay) {
			fmt.Fprintf(&b, "report %s %s %x\n", p.Name, fx.Name, reportKey(fx.Prog, spec, cfg))
		}
	}
	path := filepath.Join("testdata", "cachekeys.golden")
	if *updateKeys {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("cache keys changed; a summary or report cached under the old keys would be orphaned\ngot:\n%s\nwant:\n%s", got, want)
	}
}
