package datanet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCIFuzzesEveryTarget: the CI fuzz step runs one `pkg target` line of
// its heredoc per fuzz target, and the list is written by hand. It must
// name exactly the module's `func FuzzX(*testing.F)` declarations, so a new
// target cannot go unfuzzed and a renamed one cannot leave a stale line.
func TestCIFuzzesEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	inside := false
	for _, line := range strings.Split(string(ci), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasSuffix(line, "<<'EOF'"):
			inside = true
		case line == "EOF":
			inside = false
		case inside && line != "":
			listed = append(listed, strings.Join(strings.Fields(line), " "))
		}
	}

	var declared []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				strings.HasPrefix(fn.Name.Name, "Fuzz") && takesTestingF(fn) {
				pkg := "./" + filepath.ToSlash(filepath.Dir(path))
				declared = append(declared, pkg+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
	for _, d := range declared {
		if !slices.Contains(listed, d) {
			t.Errorf("fuzz target %q is missing from ci.yml's fuzz step", d)
		}
	}
	for _, l := range listed {
		if !slices.Contains(declared, l) {
			t.Errorf("ci.yml's fuzz step lists %q, which is no fuzz target", l)
		}
	}
}

// takesTestingF reports whether fn's one parameter is a *testing.F.
func takesTestingF(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
