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
// place where kernel dispatch is decided and the work is counted: no
// kernel package calls sparse.PooledMulVec* itself or holds a worker pool
// in a field or a parameter — a kernel reaches the pool only through its
// workspace — nor reduces or updates a vector with the vec leaves the
// workspace counts, nor writes a Stats field but to add the scalar flops
// no workspace call sees.
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
					if qualified(n, "vec") && countedLeaves[n.Sel.Name] {
						t.Errorf("%s: vec.%s: take it through the engine.Workspace, which counts it", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if field, ok := statsField(lhs); ok && (field != "Flops" || n.Tok != token.ADD_ASSIGN) {
							t.Errorf("%s: a write to Stats.%s: the engine.Workspace counts the work", fset.Position(n.Pos()), field)
						}
					}
				case *ast.IncDecStmt:
					if field, ok := statsField(n.X); ok {
						t.Errorf("%s: a write to Stats.%s: the engine.Workspace counts the work", fset.Position(n.Pos()), field)
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

// countedLeaves are the vec leaves the Workspace wraps and counts.
var countedLeaves = map[string]bool{
	"Dot": true, "Dots": true, "DotPair": true, "Norm2": true,
	"Axpy": true, "Xpay": true, "Combine": true, "Scale": true,
}

// statsField reports whether e is a Stats value or one of its fields,
// and which field ("" for the whole).
func statsField(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name == "Stats" {
		return "", true
	}
	if in, ok := sel.X.(*ast.SelectorExpr); ok && in.Sel.Name == "Stats" {
		return sel.Sel.Name, true
	}
	return "", false
}

// qualified reports whether sel names something of the package imported as pkg.
func qualified(sel *ast.SelectorExpr, pkg string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
