package nextgenmalloc_test

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryMainIsTested fails for every package main directory under
// cmd/ or examples/ that holds no _test.go file: a binary that only
// `go build ./...` compiles is never run, so what it prints can drift
// without any test failing.
func TestEveryMainIsTested(t *testing.T) {
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files, err := filepath.Glob(filepath.Join(path, "*.go"))
			if err != nil {
				return err
			}
			isMain, tested := false, false
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					tested = true
					continue
				}
				ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
				if err != nil {
					return err
				}
				isMain = isMain || ast.Name.Name == "main"
			}
			if isMain && !tested {
				t.Errorf("%s is a package main with no _test.go file: test it, or turn it into an Example", path)
			}
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
}
