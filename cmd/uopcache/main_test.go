package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"deaduops/internal/experiments"
)

func TestListPrintsIDs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("uopcache -list exited %d: %s", code, errb.String())
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; out.String() != want {
		t.Errorf("-list printed\n%s\nwant\n%s", out.String(), want)
	}
}

func TestBadArgsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-exp", "fig99"}, 2},
		{[]string{"-iters", "60", "-exp", "fig3a"}, 2},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("uopcache %q exited %d, want %d (stderr %q)", tc.args, code, tc.code, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("uopcache %q wrote nothing to stderr", tc.args)
		}
	}
}

// TestGoldenExperiments checks the CLI prints an experiment's golden
// rendering plus one newline.
func TestGoldenExperiments(t *testing.T) {
	for _, id := range []string{"fig4", "fig8"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-exp", id}, &out, &errb); code != 0 {
			t.Fatalf("uopcache -exp %s exited %d: %s", id, code, errb.String())
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want)+"\n" {
			t.Errorf("uopcache -exp %s differs from its golden:\n%s", id, out.String())
		}
	}
}

// docs are the files, relative to the repository root, whose quoted
// commands the tests below check.
var docs = []string{"README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// readDoc returns a file, relative to the repository root: one of
// docs or the Makefile.
func readDoc(t *testing.T, doc string) string {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// docCommand matches a quoted uopcache invocation up to the end of its
// shell command: a closing backtick, pipe, redirect, comment or ";".
var docCommand = regexp.MustCompile("go run \\./cmd/uopcache([^`|>#;\n]*)")

// goCommand matches a quoted go test or go run command, ended the same
// way, and docPackage a package path in one; a path holding a
// placeholder such as <pkg> or $id does not match.
var (
	goCommand  = regexp.MustCompile("go (?:test|run)[^`|>#;\n]*")
	docPackage = regexp.MustCompile(`\./(?:internal|cmd)/[\w./-]*`)
)

// TestDocPackagesExist checks every ./internal/... or ./cmd/... package
// a quoted go test or go run command names is still a package: a doc
// that names a deleted one fails here.
func TestDocPackagesExist(t *testing.T) {
	checked := 0
	for _, doc := range docs {
		for _, cmd := range goCommand.FindAllString(readDoc(t, doc), -1) {
			for _, field := range strings.Fields(cmd) {
				pkg := docPackage.FindString(field)
				if pkg != field {
					continue
				}
				dir := filepath.Join("..", "..", strings.TrimSuffix(strings.TrimSuffix(pkg, "..."), "/"))
				if srcs, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(srcs) == 0 {
					t.Errorf("%s: %q names %s, which holds no Go package", doc, cmd, pkg)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("the docs quote no go test or go run package")
	}
}

// fuzzTarget matches a fuzz target's declaration in a test file.
var fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)

// TestMakeFuzzListsEveryTarget checks the Makefile's fuzz recipe and
// the module's fuzz targets agree: every target has a recipe line that
// fuzzes it in its own package with -run '^$$', so the package's unit
// tests are not rerun in the fuzzing binary, and every recipe line
// names a target (a -fuzz pattern that matches none exits 0).
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]bool{} // "./internal/asm FuzzAssemble"
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, or not Go source
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(src), -1) {
			declared["./"+filepath.ToSlash(rel)+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("the module declares no fuzz target")
	}

	_, recipe, ok := strings.Cut(readDoc(t, "Makefile"), "\nfuzz:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz target")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		f := strings.Fields(line)
		if len(f) < 7 || f[1] != "test" || f[3] != "-run" || f[4] != "'^$$'" || f[5] != "-fuzz" {
			t.Errorf("fuzz recipe line %q is not \"$(GO) test ./<pkg> -run '^$$' -fuzz FuzzX ...\"", line)
			continue
		}
		listed[f[2]+" "+f[6]] = true
	}
	for target := range declared {
		if !listed[target] {
			t.Errorf("fuzz target %s has no line in the Makefile fuzz recipe", target)
		}
	}
	for target := range listed {
		if !declared[target] {
			t.Errorf("the Makefile fuzz recipe fuzzes %s, which the module does not declare", target)
		}
	}
}

// TestDocCommandsParse checks every uopcache command the docs quote
// still parses: each one, with its id placeholder filled in and -list
// appended so nothing runs, must exit 0. A doc that names a removed
// flag fails here.
func TestDocCommandsParse(t *testing.T) {
	for _, doc := range docs {
		cmds := docCommand.FindAllStringSubmatch(readDoc(t, doc), -1)
		if len(cmds) == 0 {
			t.Errorf("%s quotes no uopcache command", doc)
		}
		for _, m := range cmds {
			args := strings.Fields(strings.NewReplacer("$id", "fig3a", "<id>", "fig3a").Replace(m[1]))
			var out, errb bytes.Buffer
			if code := run(append(args, "-list"), &out, &errb); code != 0 {
				t.Errorf("%s: uopcache %q exited %d: %s", doc, args, code, errb.String())
			}
		}
	}
}
