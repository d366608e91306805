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
// abort work a coalesced follower waits on; Build is the database build,
// which takes no context (the frozen benchmark module calls Build(cfg)).
// Any other operation takes its caller's context.
var detachedRoots = map[[2]string]bool{
	{"internal/server/server.go", "(*Server).Close"}:        true,
	{"internal/server/server.go", "(*Server).runCustomize"}: true,
	{"internal/synthrag/synthrag.go", "Build"}:              true,
}

// libraryFiles calls fn on every non-test Go file of the library, parsed:
// cmd/ and examples/ are out of scope (each main owns its process), and so
// are tests and the bench/ module.
func libraryFiles(t *testing.T, fn func(file string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoDetachedContexts: no library function calls context.Background() or
// context.TODO() outside detachedRoots, so a caller's deadline reaches every
// wait below it. An allowlist entry that no longer detaches fails too, so the
// list cannot outlive its reasons.
func TestNoDetachedContexts(t *testing.T) {
	found := map[[2]string]bool{}
	var stray []string
	libraryFiles(t, func(file string, fset *token.FileSet, f *ast.File) {
		pkg := importName(f, "context")
		if pkg == "" {
			return
		}
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
	})
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

// processCounters are the only package-level variables of a sync/atomic type
// library code may keep, by file and name, each with its reason.
var processCounters = map[[2]string]string{
	{"internal/sta/incremental.go", "fullAnalyses"}:       "bench/replay.go reads sta.FullAnalyses",
	{"internal/sta/incremental.go", "incrementalUpdates"}: "bench/replay.go reads sta.IncrementalUpdates",
	{"internal/sta/incremental.go", "dirtyObserver"}:      "bench/replay.go sets sta.SetDirtyNodesObserver",
}

// TestNoProcessCounters: library code counts what it does into the
// work.Counts its caller's context carries, not into a package-level atomic
// that every server and test in the process shares. A package-level variable
// of a sync/atomic type outside processCounters fails, and so does an
// allowlist entry that no longer exists. (A sync.Pool is not a counter.)
func TestNoProcessCounters(t *testing.T) {
	found := map[[2]string]bool{}
	var stray []string
	libraryFiles(t, func(file string, fset *token.FileSet, f *ast.File) {
		pkg := importName(f, "sync/atomic")
		if pkg == "" {
			return
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				atomic := false
				ast.Inspect(vs, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
							atomic = true
						}
					}
					return !atomic
				})
				if !atomic {
					continue
				}
				for _, name := range vs.Names {
					key := [2]string{file, name.Name}
					if _, ok := processCounters[key]; ok {
						found[key] = true
					} else {
						stray = append(stray, fmt.Sprintf("%s: var %s", fset.Position(name.Pos()), name.Name))
					}
				}
			}
		}
	})
	if len(stray) > 0 {
		t.Errorf("library code keeps a process-wide atomic; count into the caller's work.Counts instead:\n\t%s",
			strings.Join(stray, "\n\t"))
	}
	for key, why := range processCounters {
		if !found[key] {
			t.Errorf("%s %s (kept because %s) is gone; drop it from processCounters", key[0], key[1], why)
		}
	}
}

// importName is the name file f imports path under, or "" when it does not
// import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:] // the package name of context and sync/atomic
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
