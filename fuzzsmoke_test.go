package chatls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzSmokeRunsEveryTarget: `make fuzz-smoke` runs every Fuzz target in
// the module, each from its own package, and names no target that is gone.
// A target added without its Makefile line, or a line left behind by a
// deleted target, fails here instead of going unfuzzed or breaking the
// recipe.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	var targets []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Another module (bench/) is out of `go test ./...`'s reach, and
			// so out of the recipe's.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, "./"+filepath.ToSlash(filepath.Dir(path))+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no Fuzz targets")
	}

	line := regexp.MustCompile(`^\$\(GO\) test (\S+) .*-fuzz=(\w+)`)
	var recipe []string
	for _, l := range recipeLines(t, "fuzz-smoke") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("fuzz-smoke recipe line %q runs no fuzz target", l)
		}
		recipe = append(recipe, m[1]+" "+m[2])
	}

	slices.Sort(targets)
	slices.Sort(recipe)
	if !slices.Equal(targets, recipe) {
		t.Errorf("make fuzz-smoke runs\n\t%s\nwant every Fuzz target in the module\n\t%s",
			strings.Join(recipe, "\n\t"), strings.Join(targets, "\n\t"))
	}
}

// recipeLines returns the command lines of a Makefile target's recipe, each
// with its leading tab cut and its backslash continuations joined.
func recipeLines(t *testing.T, target string) []string {
	t.Helper()
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	in, cont := false, false
	for _, l := range strings.Split(string(makefile), "\n") {
		switch {
		case l == target+":":
			in = true
		case in && strings.HasPrefix(l, "\t"):
			l = strings.TrimSpace(l)
			part := strings.TrimSpace(strings.TrimSuffix(l, "\\"))
			if cont {
				lines[len(lines)-1] += " " + part
			} else {
				lines = append(lines, part)
			}
			cont = strings.HasSuffix(l, "\\")
		case in:
			in = false
		}
	}
	if len(lines) == 0 {
		t.Fatalf("Makefile has no recipe for %s", target)
	}
	return lines
}

// TestMakefileGatesRunLiveTests: every alternative of every -run pattern in
// the gates that name tests matches a Test func in the package its line
// runs. A test deleted or renamed while its name stays in a gate's pattern
// would otherwise drop out of the gate with the gate still passing.
func TestMakefileGatesRunLiveTests(t *testing.T) {
	line := regexp.MustCompile(`^\$\(GO\) test .*-run[ =]'([^']*)'`)
	pkgArg := regexp.MustCompile(` (\.\S*)`)
	for _, target := range []string{"crash-recovery", "remote-cache-e2e", "derived-race"} {
		runs := 0
		for _, l := range recipeLines(t, target) {
			if !strings.Contains(l, "-run") {
				continue
			}
			m := line.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("%s: line %q has a -run this test cannot read", target, l)
			}
			runs++
			pkg := pkgArg.FindStringSubmatch(l)
			if pkg == nil {
				t.Fatalf("%s: line %q names no package", target, l)
			}
			tests := testFuncs(t, pkg[1])
			for _, alt := range alternatives(m[1]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%s: -run alternative %q: %v", target, alt, err)
				}
				if !slices.ContainsFunc(tests, re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no Test func in %s", target, alt, pkg[1])
				}
			}
		}
		if runs == 0 {
			t.Errorf("%s: recipe has no -run line", target)
		}
	}
}

// alternatives splits a -run pattern at its top-level '|'s.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs lists the Test funcs declared in the _test.go files of the
// package directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no Test funcs in %s", dir)
	}
	return names
}
