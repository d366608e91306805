package chatls

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// detachedRoots are the only places library code may start a context of its
// own, each a root by design: Close is Shutdown for callers that hold no
// context; runCustomize roots a request so a client disconnect does not
// abort work a coalesced follower waits on; bestStrategy is the database
// build's expert sweep, and Build takes no context (the frozen benchmark
// module calls Build(cfg)). Any other operation takes its caller's context.
var detachedRoots = map[[2]string]bool{
	{"internal/server/server.go", "(*Server).Close"}:        true,
	{"internal/server/server.go", "(*Server).runCustomize"}: true,
	{"internal/synthrag/synthrag.go", "bestStrategy"}:       true,
}

// TestNoDetachedContexts: no library function calls context.Background() or
// context.TODO() outside detachedRoots, so a caller's deadline reaches every
// wait below it. cmd/ and examples/ are out of scope (each main owns its root
// context), and so are tests and the bench/ module. An allowlist entry that
// no longer detaches fails too, so the list cannot outlive its reasons.
func TestNoDetachedContexts(t *testing.T) {
	found := map[[2]string]bool{}
	var stray []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				path == "cmd" || path == "examples" ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := contextImportName(f)
		if pkg == "" {
			return nil
		}
		file := filepath.ToSlash(path)
		for _, decl := range f.Decls {
			fn := "" // a package-level declaration
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != pkg {
					return true
				}
				key := [2]string{file, fn}
				if detachedRoots[key] {
					found[key] = true
				} else {
					stray = append(stray, fmt.Sprintf("%s in %s: context.%s()", fset.Position(call.Pos()), fn, sel.Sel.Name))
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) > 0 {
		t.Errorf("library code detaches from its caller's context; take a ctx parameter instead:\n\t%s",
			strings.Join(stray, "\n\t"))
	}
	for key := range detachedRoots {
		if !found[key] {
			t.Errorf("%s %s no longer starts a context of its own; drop it from detachedRoots", key[0], key[1])
		}
	}
}

// contextImportName is the name file f imports package context under, or ""
// when it does not import it.
func contextImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "context" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "context"
		}
	}
	return ""
}

// funcName is fd's name as Go prints a method value: "f", "T.m" or "(*T).m".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}
