package datanet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are called by the standard library through an interface
// (fmt, errors, flag, net/http, sort, container/heap, encoding/json, io),
// so no selector in this module names them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Set": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Write": true, "Read": true,
}

// testHelpers are called only by another package's tests, each for the
// reason given.
var testHelpers = map[string]string{
	"obs.ValidatePromText":              "the exposition-format oracle of the server and clusterd /metrics tests",
	"hdfs.FileSystem.ReplicationHealth": "the re-replication invariant of the mapreduce fault tests and the root integration test",
	"hdfs.FileSystem.NodeBlocks":        "the data-node block report those same tests read to see a failed node emptied",
	"apps.Extended":                     "the full app set the mapreduce collector and partition-independence tests sweep",
}

// TestNoUncalledFunctions fails on any function or method declared under
// internal/ that no non-test file of the module refers to. A method counts
// as used when a selector on a value names it (method values included); a
// function when it is named as pkg.Name through an import of its package,
// or by a bare identifier inside its own package.
func TestNoUncalledFunctions(t *testing.T) {
	type decl struct {
		pos        token.Position
		pkg, recv  string
		name, self string
	}
	fset := token.NewFileSet()
	var decls []decl
	selected := map[string]bool{} // method names seen in any selector
	named := map[string]bool{}    // "importpath.Name" of functions referred to
	helpers := map[string]bool{}  // testHelpers keys that matched an uncalled declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (len(n) > 1 && n[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		self := filepath.ToSlash(filepath.Join("datanet", filepath.Dir(path)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if !strings.HasPrefix(self, "datanet/internal/") || (n.Recv == nil && n.Name.Name == "init") {
					break
				}
				dc := decl{pos: fset.Position(n.Pos()), pkg: f.Name.Name, name: n.Name.Name, self: self}
				if n.Recv != nil {
					dc.recv = recvName(n.Recv.List[0].Type)
				}
				decls = append(decls, dc)
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					selected[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !skip[n] {
					named[self+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
			if selected[d.name] || interfaceMethods[d.name] {
				continue
			}
		} else if named[d.self+"."+d.name] {
			continue
		}
		if testHelpers[key] != "" {
			helpers[key] = true
			continue
		}
		t.Errorf("%s:%d %s is called by no non-test code", d.pos.Filename, d.pos.Line, strings.TrimPrefix(key, d.pkg+"."))
	}
	for key := range testHelpers {
		if !helpers[key] {
			t.Errorf("allow-listed %s is gone or has a non-test caller: drop it from testHelpers", key)
		}
	}
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
