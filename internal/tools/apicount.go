//go:build ignore

// apicount prints the number of exported identifiers in the non-test Go
// files under the current directory, outside benchmark/: top-level
// declarations (functions, methods, types, constants, variables), struct
// fields and interface methods — what `make api` quotes beside `make loc`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"path/filepath"
	"strings"
)

func main() {
	count := 0
	exported := func(names ...*ast.Ident) {
		for _, n := range names {
			if n.IsExported() {
				count++
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "benchmark":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				exported(n.Name)
				return false // locals are not API
			case *ast.TypeSpec:
				exported(n.Name)
			case *ast.ValueSpec:
				exported(n.Names...)
			case *ast.StructType:
				for _, f := range n.Fields.List {
					exported(f.Names...)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					exported(m.Names...)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(count)
}
