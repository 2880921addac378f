package simclock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPricesHaveOneOwner: no non-test Go file outside this package and
// benchmark/ names a CostModel price field, so every charge and every
// prediction goes through the price list's methods. The only exemption
// is internal/vision's per-model accessors (OracleCostMS, FrameCostMS),
// which say which field prices a model's frame.
func TestPricesHaveOneOwner(t *testing.T) {
	fields := map[string]bool{}
	for typ, i := reflect.TypeFor[CostModel](), 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	root := filepath.Join("..", "..")
	var reads []string             // file:line, in walk order
	named := map[string][]string{} // the fields each line names
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && (rel == "benchmark" || rel == "internal/simclock" || rel != "." && strings.HasPrefix(rel, ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				accessor := n.Name.Name == "OracleCostMS" || n.Name.Name == "FrameCostMS"
				return !(accessor && strings.HasPrefix(rel, "internal/vision/"))
			case *ast.SelectorExpr:
				if fields[n.Sel.Name] {
					at := fmt.Sprintf("%s:%d", rel, fset.Position(n.Sel.Pos()).Line)
					if named[at] == nil {
						reads = append(reads, at)
					}
					named[at] = append(named[at], n.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) > 0 {
		for i, at := range reads {
			reads[i] = fmt.Sprintf("%s (%s)", at, strings.Join(named[at], ", "))
		}
		t.Fatalf("%d lines read a CostModel price field outside simclock; call a price method instead:\n  %s",
			len(reads), strings.Join(reads, "\n  "))
	}
}
