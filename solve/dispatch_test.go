package solve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelsDispatchThroughTheWorkspace keeps engine.Workspace the one
// place where kernel dispatch is decided: no kernel package calls
// sparse.PooledMulVec* itself or holds a worker pool in a field or a
// parameter — a kernel reaches the pool only through its workspace.
func TestKernelsDispatchThroughTheWorkspace(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"core", "parcg", "krylov", "pipecg", "sstep", "gkrylov"} {
		files, err := filepath.Glob(filepath.Join("..", "internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if qualified(n, "sparse") && strings.HasPrefix(n.Sel.Name, "PooledMulVec") {
						t.Errorf("%s: sparse.%s: take products through the engine.Workspace", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.Field:
					if star, ok := n.Type.(*ast.StarExpr); ok {
						if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" && (qualified(sel, "vec") || qualified(sel, "sparse")) {
							t.Errorf("%s: a *%s.Pool field or parameter: reach the pool through the engine.Workspace", fset.Position(n.Pos()), sel.X.(*ast.Ident).Name)
						}
					}
				}
				return true
			})
		}
	}
}

// qualified reports whether sel names something of the package imported as pkg.
func qualified(sel *ast.SelectorExpr, pkg string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
