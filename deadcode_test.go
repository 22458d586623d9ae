package datanet_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
	"mapreduce.MapOutput.Output":        "the ledger-fold reference output of the mapreduce collector test and the suite's output-gate test",
	"sim.Event.Seq":                     "the kernel posting order the mapreduce kill-order test and the sim model test compare",
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// TestNoUncalledFunctions fails on any function or method declared under
// internal/ — interface methods included — that no non-test file of the
// module refers to. It type-checks the module's non-test sources in one
// type universe (standard-library imports come from the export data `go
// list -export` points at), so a use resolves to the one declaration it
// names: same-named methods of other types do not shield each other. A
// method selected through an interface counts every module method that
// implements it as used.
func TestNoUncalledFunctions(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	imp := moduleImporter{
		src: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var files []*ast.File    // the non-test files under internal/
	var named []*types.Named // the module's named types
	for _, p := range pkgs { // -deps lists every package after its imports
		if p.Standard {
			continue
		}
		var pf []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			pf = append(pf, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, pf, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.src[p.ImportPath] = tp
		if strings.HasPrefix(p.ImportPath, "datanet/internal/") {
			files = append(files, pf...)
		}
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}

	// Every function or method a non-test file refers to, and every
	// interface method it selects.
	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if !used[fn] && isInterfaceMethod(fn) {
			ifaceUses = append(ifaceUses, fn)
		}
		used[fn] = true
	}
	for _, m := range ifaceUses {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			for _, v := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(v, iface) {
					continue
				}
				if impl, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name()); impl != nil {
					used[impl.(*types.Func).Origin()] = true
				}
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	helpers := map[string]bool{} // testHelpers keys that matched an uncalled declaration
	report := func(id *ast.Ident, recv string) {
		fn := info.Defs[id].(*types.Func)
		if used[fn] || (recv != "" && interfaceMethods[id.Name]) {
			return
		}
		name := id.Name
		if recv != "" {
			name = recv + "." + name
		}
		if key := fn.Pkg().Name() + "." + name; testHelpers[key] != "" {
			helpers[key] = true
			return
		}
		pos := fset.Position(id.Pos())
		rel, _ := filepath.Rel(wd, pos.Filename)
		t.Errorf("%s:%d %s is called by no non-test code", filepath.ToSlash(rel), pos.Line, name)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				var recv string
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type)
				}
				report(d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							report(id, ts.Name.Name)
						}
					}
				}
			}
		}
	}
	for key := range testHelpers {
		if !helpers[key] {
			t.Errorf("allow-listed %s is gone or has a non-test caller: drop it from testHelpers", key)
		}
	}
}

// moduleImporter resolves the module's own packages to their
// source-checked types and everything else to compiler export data, so
// all of them share one type universe.
type moduleImporter struct {
	src map[string]*types.Package
	std types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.src[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// isInterfaceMethod reports whether fn is declared by an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
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
