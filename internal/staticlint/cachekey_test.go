package staticlint

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deaduops/internal/isa"
	"deaduops/internal/profile"
	"deaduops/internal/victim"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/cachekeys.golden")

// TestCacheKeysGolden pins the cache keys a long-lived uoplintd pool
// hands out: configFingerprint of every profile's analyzer config, with
// and without the checker selection, reportKey of every victim fixture
// under its secret spec and every profile, and the summary keys sccKeys
// gives each function of each fixture, one line per function in
// bottom-up SCC order. A refactor of the
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
		specFP, cfgFP := specFingerprint(spec), configFingerprint(cfg, false)
		for _, fx := range victim.Fixtures(lay) {
			a := Analyze(fx.Prog, spec, cfg)
			funcKey := make([]cacheKey, len(a.funcs))
			i := 0
			for _, scc := range a.callSCCs() {
				for _, k := range a.sccKeys(scc, specFP, cfgFP, funcKey) {
					fmt.Fprintf(&b, "scc %s %s %d %x\n", p.Name, fx.Name, i, k)
					i++
				}
			}
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

// TestHashInstRoundTrip holds hashInst's fixed-width form to being
// injective: every random instruction encodes to exactly instKeyLen
// bytes, and decoding those bytes gives the instruction back. The
// one-byte fields must stay one byte wide in isa.Inst, or the encoding
// would truncate them.
func TestHashInstRoundTrip(t *testing.T) {
	typ := reflect.TypeOf(isa.Inst{})
	for _, name := range []string{"Op", "Dst", "Src", "Cond", "Len", "UopCount"} {
		if f, _ := typ.FieldByName(name); f.Type.Size() != 1 {
			t.Fatalf("isa.Inst.%s is %d bytes wide; hashInst writes it as one byte", name, f.Type.Size())
		}
	}
	if n := typ.NumField(); n != 11 {
		t.Fatalf("isa.Inst has %d fields; hashInst encodes 11", n)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		in := isa.Inst{
			Op: isa.Op(rng.Intn(256)), Dst: isa.Reg(rng.Intn(256)), Src: isa.Reg(rng.Intn(256)),
			Imm: int64(rng.Uint64()), Cond: isa.Cond(rng.Intn(256)),
			HasImm: rng.Intn(2) == 0, Imm64: rng.Intn(2) == 0, LCP: rng.Intn(2) == 0,
			Addr: rng.Uint64(), Len: uint8(rng.Intn(256)), UopCount: uint8(rng.Intn(256)),
		}
		w := &hasher{}
		hashInst(w, &in)
		b := w.buf
		if len(b) != instKeyLen {
			t.Fatalf("hashInst wrote %d bytes, want %d", len(b), instKeyLen)
		}
		got := isa.Inst{
			Op: isa.Op(b[0]), Dst: isa.Reg(b[1]), Src: isa.Reg(b[2]), Cond: isa.Cond(b[3]),
			HasImm: b[4]&instHasImm != 0, Imm64: b[4]&instImm64 != 0, LCP: b[4]&instLCP != 0,
			Len: b[5], UopCount: b[6],
			Imm:  int64(binary.LittleEndian.Uint64(b[7:])),
			Addr: binary.LittleEndian.Uint64(b[15:]),
		}
		if b[4]&^(instHasImm|instImm64|instLCP) != 0 || got != in {
			t.Fatalf("hashInst(%+v) = %x decodes to %+v", in, b, got)
		}
	}
}
