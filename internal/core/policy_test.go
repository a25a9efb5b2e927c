package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPoliciesResolvedInNew pins where the package reads the fields that
// choose a mechanism. New resolves Config.Layout into the slab encoding,
// and Config.Resilience.Enabled and Config.Faults into the server's
// validator, the client's waiter and the injector hook; everything else
// asks what New resolved. Only keyValues also reads the layout, to spell
// the variant's kind spec. Fields are matched by selector name over the package's
// non-test files, so an alias such as r := &cfg.Resilience; r.Enabled is
// caught too; a selector assigned to is a write (NewFleet arming a
// shard's config before New), not a read. The same pass pins resp.go's
// ownership of the response word: no other file names respWord (so none
// loads or stores the word) or assigns a .seq field (so none numbers a
// request).
func TestPoliciesResolvedInNew(t *testing.T) {
	allowed := map[string][]string{
		"Layout":  {"New", "keyValues"},
		"Enabled": {"New"},
		"Faults":  {"New"},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]int{}
	owned := func(file string, n ast.Node, what string) {
		if file != "resp.go" {
			t.Errorf("%s: %s outside resp.go", fset.Position(n.Pos()), what)
		}
		seen[what]++
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					fn = recvName(fd.Recv.List[0].Type) + "." + fn
				}
			}
			written := map[ast.Node]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written[lhs] = true
						if isSeq(lhs) {
							owned(name, n, "assignment of .seq")
						}
					}
				case *ast.IncDecStmt:
					if isSeq(n.X) {
						owned(name, n, "assignment of .seq")
					}
				case *ast.Ident:
					if n.Name == "respWord" {
						owned(name, n, "respWord")
					}
				case *ast.SelectorExpr:
					fns, ok := allowed[n.Sel.Name]
					if !ok || written[n] {
						break
					}
					if !slices.Contains(fns, fn) {
						t.Errorf("%s: %s reads .%s; only %s may", fset.Position(n.Pos()), fn, n.Sel.Name, strings.Join(fns, " and "))
					}
					seen[n.Sel.Name]++
				}
				return true
			})
		}
	}
	for field := range allowed {
		if seen[field] == 0 {
			t.Errorf("no read of .%s found at all: the scan is not looking at the package", field)
		}
	}
	for _, what := range []string{"assignment of .seq", "respWord"} {
		if seen[what] == 0 {
			t.Errorf("no %s found at all, not even in resp.go", what)
		}
	}
}

// isSeq reports whether e is a .seq selector.
func isSeq(e ast.Expr) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && s.Sel.Name == "seq"
}

// recvName is a method receiver's type name, without the pointer.
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
