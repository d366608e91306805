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

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^\t\$\(GO\) test (\S+) .*-fuzz=(\w+)`)
	var recipe []string
	inRecipe := false
	for _, l := range strings.Split(string(makefile), "\n") {
		switch {
		case l == "fuzz-smoke:":
			inRecipe = true
		case inRecipe && strings.HasPrefix(l, "\t"):
			m := line.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("fuzz-smoke recipe line %q runs no fuzz target", l)
			}
			recipe = append(recipe, m[1]+" "+m[2])
		case inRecipe:
			inRecipe = false
		}
	}

	slices.Sort(targets)
	slices.Sort(recipe)
	if !slices.Equal(targets, recipe) {
		t.Errorf("make fuzz-smoke runs\n\t%s\nwant every Fuzz target in the module\n\t%s",
			strings.Join(recipe, "\n\t"), strings.Join(targets, "\n\t"))
	}
}
