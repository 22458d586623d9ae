package datanet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	"obs.ValidatePromText":              "the exposition-format oracle of the server, clusterd and cmd/datanet /metrics tests",
	"hdfs.FileSystem.ReplicationHealth": "the re-replication invariant of the mapreduce fault tests and the root integration test",
	"hdfs.FileSystem.NodeBlocks":        "the data-node block report those same tests read to see a failed node emptied",
	"apps.Extended":                     "the full app set the mapreduce collector and partition-independence tests sweep",
	"mapreduce.MapOutput.Output":        "the ledger-fold reference output of the mapreduce collector test and the suite's output-gate test",
	"sim.Event.Seq":                     "the kernel posting order the mapreduce kill-order test and the sim model test compare",
}

// testFields are written by production code but read only by tests, which
// need them as witnesses of production behaviour, each for the reason given.
var testFields = map[string]string{
	"partition.SkewAware.fellBack":   "tells the partition fuzz and property tests that the over-capacity guard discarded the greedy plan",
	"experiments.suiteSection.gates": "the gate table gates_test.go evaluates against every suite section",
	"experiments.gate.lhs":           "a gate row's left operand, evaluated by gates_test.go",
	"experiments.gate.op":            "a gate row's comparison, evaluated by gates_test.go",
	"experiments.gate.factor":        "a gate row's factor, evaluated by gates_test.go",
	"experiments.gate.rhs":           "a gate row's right operand, evaluated by gates_test.go",
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// checkedPackage is one of the module's packages, type-checked from its
// non-test sources.
type checkedPackage struct {
	path  string
	files []*ast.File
	types *types.Package
}

// checkedModule is every package of the module in one type universe:
// standard-library imports come from the export data `go list -export`
// points at, so a use resolves to the one declaration it names.
type checkedModule struct {
	fset *token.FileSet
	imp  moduleImporter
	info *types.Info
	pkgs []checkedPackage // imports before importers
}

var (
	moduleOnce sync.Once
	module     *checkedModule
	moduleErr  error
)

// loadModule type-checks the module's non-test sources once per test
// binary; every dead-code test reads the same result.
func loadModule(t *testing.T) *checkedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = checkModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

func checkModule() (*checkedModule, error) {
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		listed = append(listed, p)
	}

	m := &checkedModule{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	m.imp = moduleImporter{
		src: map[string]*types.Package{},
		std: importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	for _, p := range listed { // -deps lists every package after its imports
		if p.Standard {
			continue
		}
		cp := checkedPackage{path: p.ImportPath}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: m.imp}
		if cp.types, err = conf.Check(p.ImportPath, m.fset, cp.files, m.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		m.imp.src[p.ImportPath] = cp.types
		m.pkgs = append(m.pkgs, cp)
	}
	return m, nil
}

// TestNoUncalledFunctions fails on any function or method declared under
// internal/ — interface methods included — that no non-test file of the
// module refers to. Same-named methods of other types do not shield each
// other. A method selected through an interface counts every module method
// that implements it as used.
func TestNoUncalledFunctions(t *testing.T) {
	m := loadModule(t)
	var files []*ast.File    // the non-test files under internal/
	var named []*types.Named // the module's named types
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.path, "datanet/internal/") {
			files = append(files, p.files...)
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
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
	for _, obj := range m.info.Uses {
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
	for _, fn := range ifaceUses {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			for _, v := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(v, iface) {
					continue
				}
				if impl, _, _ := types.LookupFieldOrMethod(v, true, fn.Pkg(), fn.Name()); impl != nil {
					used[impl.(*types.Func).Origin()] = true
				}
			}
		}
	}

	helpers := map[string]bool{} // testHelpers keys that matched an uncalled declaration
	report := func(id *ast.Ident, recv string) {
		fn := m.info.Defs[id].(*types.Func)
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
		t.Errorf("%s %s is called by no non-test code", relPos(t, m.fset, id.Pos()), name)
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
					for _, meth := range it.Methods.List {
						for _, id := range meth.Names {
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

// TestNoWriteOnlyFields fails on any field of a named struct type declared
// in the root package or under internal/ or cmd/ that no non-test file of
// the module reads (bench/ and examples/ are not scanned, but their reads
// count). See unreadFields for what counts as a read.
func TestNoWriteOnlyFields(t *testing.T) {
	m := loadModule(t)
	var all, scan []*ast.File
	for _, p := range m.pkgs {
		all = append(all, p.files...)
		if p.path == "datanet" || strings.HasPrefix(p.path, "datanet/internal/") || strings.HasPrefix(p.path, "datanet/cmd/") {
			scan = append(scan, p.files...)
		}
	}
	unread, stale := unreadFields(m.info, all, scan, testFields)
	for _, f := range unread {
		t.Errorf("%s %s is read by no non-test code", relPos(t, m.fset, f.pos), f.key)
	}
	for _, key := range stale {
		t.Errorf("allow-listed %s is gone or has a non-test reader: drop it from testFields", key)
	}
}

// unreadField is a struct field no file reads, keyed pkg.Type.field.
type unreadField struct {
	pos token.Pos
	key string
}

// unreadFields returns the fields of the named struct types declared in
// scan that no file of all reads, except those allow lists, and the allow
// keys that matched no such field.
//
// A composite-literal key, the left side of = or op=, and the operand of
// ++ or -- write the field they name, or the field they index (x.f[i] = v);
// so does the first argument of x.f = append(x.f, …). Every other use
// reads it, and a promoted selection also reads the embedded fields on its
// path. Three kinds of field count as read with no such use: a JSON-tagged
// field; every exported or embedded field of a type statically reachable
// from the argument of json.Marshal, json.MarshalIndent or
// (*json.Encoder).Encode, through pointers, arrays, slices, maps and
// struct fields (an argument of interface or type-parameter type reaches
// nothing: its dynamic type is not known statically); and every field of a
// struct used as a map key, which map equality reads.
func unreadFields(info *types.Info, all, scan []*ast.File, allow map[string]string) (unread []unreadField, stale []string) {
	read := map[*types.Var]bool{}
	readStruct := func(t types.Type, each func(f *types.Var)) {
		if s, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				each(s.Field(i))
			}
		}
	}
	seen := map[types.Type]bool{}
	var readJSON func(t types.Type)
	readJSON = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := types.Unalias(t).Underlying().(type) {
		case *types.Pointer:
			readJSON(u.Elem())
		case *types.Slice:
			readJSON(u.Elem())
		case *types.Array:
			readJSON(u.Elem())
		case *types.Map:
			readJSON(u.Key())
			readJSON(u.Elem())
		case *types.Struct:
			readStruct(u, func(f *types.Var) {
				if f.Exported() || f.Embedded() {
					read[f.Origin()] = true
					readJSON(f.Type())
				}
			})
		}
	}
	var readKey func(t types.Type)
	readKey = func(t types.Type) {
		readStruct(t, func(f *types.Var) {
			read[f.Origin()] = true
			readKey(f.Type())
		})
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readKey(m.Key())
			}
		}
	}

	written := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		e = ast.Unparen(e)
		for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
			e = ast.Unparen(ix.X)
		}
		if s, ok := e.(*ast.SelectorExpr); ok {
			written[s.Sel] = true
		}
	}
	for _, f := range all {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[id] = true
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						write(l)
					}
				}
				if len(n.Rhs) == 1 && isSelfAppend(info, n.Lhs[0], n.Rhs[0]) {
					write(n.Rhs[0].(*ast.CallExpr).Args[0])
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil {
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						f := t.Underlying().(*types.Struct).Field(i)
						read[f.Origin()] = true
						t = f.Type()
					}
				}
			case *ast.CallExpr:
				if s, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
					if fn, ok := info.Uses[s.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
						(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode") {
						readJSON(info.TypeOf(n.Args[0]))
					}
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
					read[v.Origin()] = true
				}
			}
			return true
		})
	}

	allowed := map[string]bool{} // allow keys that matched an unread field
	for _, f := range scan {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			tn, ok := info.Defs[ts.Name].(*types.TypeName)
			if !ok || tn.IsAlias() {
				return true
			}
			s, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i := 0; i < s.NumFields(); i++ {
				v := s.Field(i)
				if _, tagged := reflect.StructTag(s.Tag(i)).Lookup("json"); tagged || read[v] || v.Name() == "_" {
					continue
				}
				key := tn.Pkg().Name() + "." + tn.Name() + "." + v.Name()
				if allow[key] != "" {
					allowed[key] = true
					continue
				}
				unread = append(unread, unreadField{v.Pos(), key})
			}
			return true
		})
	}
	for key := range allow {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return unread, stale
}

// isSelfAppend reports whether lhs = rhs is lhs = append(lhs, …).
func isSelfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, builtin := info.Uses[fn].(*types.Builtin); !builtin || fn.Name != "append" {
		return false
	}
	return types.ExprString(ast.Unparen(lhs)) == types.ExprString(ast.Unparen(call.Args[0]))
}

// TestUnreadFieldsRules checks unreadFields' verdict for each kind of
// read and write on a small source.
func TestUnreadFieldsRules(t *testing.T) {
	const src = `package p

import (
	"encoding/json"
	"os"
)

type lit struct{ f int }
type assign struct{ f int }
type opAssign struct{ f int }
type incDec struct{ f int }
type addr struct{ f int }
type inner struct{ f int }
type outer struct{ inner }
type tagged struct {
	F int ` + "`json:\"f\"`" + `
}
type marshaled struct {
	F int
	g int
}
type nested struct{ F int }
type wrapper struct{ N []nested }
type encoded struct{ F int }
type opaque struct{ F int }
type key struct{ a, b int }
type allowed struct{ f int }
type elem struct{ f []int }
type mapElem struct{ f map[string]int }
type opElem struct{ f []int }
type incElem struct{ f []int }
type grown struct{ f []int }
type readElem struct{ f []int }

func use(a *assign, o opAssign, d *addr, x outer, g interface{}, e elem, m mapElem, oe opElem, ie incElem, gr *grown, re readElem) {
	_ = lit{f: 1}
	a.f = 1
	o.f += 2
	var i incDec
	i.f++
	_ = &d.f
	_ = x.f
	_ = tagged{F: 1}
	json.Marshal(map[string]*marshaled{"m": {F: 1, g: 2}})
	json.MarshalIndent(wrapper{N: []nested{{F: 1}}}, "", " ")
	json.NewEncoder(os.Stdout).Encode(&encoded{F: 1})
	g = opaque{F: 1}
	json.Marshal(g)
	_ = map[key]int{{a: 1, b: 2}: 3}
	_ = allowed{f: 1}
	e.f[0] = 1
	m.f["k"] = 1
	oe.f[0] += 2
	ie.f[0]--
	gr.f = append(gr.f, 1)
	_ = re.f[0]
}
`
	m := loadModule(t)
	f, err := parser.ParseFile(m.fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{Importer: m.imp}).Check("p", m.fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	unread, stale := unreadFields(info, files, files, map[string]string{
		"p.allowed.f": "written only, allow-listed",
		"p.gone.f":    "matches no field",
	})
	got := map[string]bool{}
	for _, u := range unread {
		got[u.key] = true
	}
	for _, c := range []struct {
		key    string
		unread bool
	}{
		{"p.lit.f", true},      // composite-literal key
		{"p.assign.f", true},   // left side of =
		{"p.opAssign.f", true}, // left side of +=
		{"p.incDec.f", true},   // operand of ++
		{"p.addr.f", false},    // &d.f
		{"p.inner.f", false},   // x.f, promoted
		{"p.outer.inner", false},
		{"p.tagged.F", false},
		{"p.marshaled.F", false}, // map value reachable from json.Marshal
		{"p.marshaled.g", true},  // unexported: encoding/json skips it
		{"p.wrapper.N", false},   // json.MarshalIndent argument
		{"p.nested.F", false},    // through a slice field
		{"p.encoded.F", false},   // (*json.Encoder).Encode argument
		{"p.opaque.F", true},     // behind an interface argument
		{"p.key.a", false},       // map key
		{"p.key.b", false},
		{"p.allowed.f", false},  // allow-listed
		{"p.elem.f", true},      // x.f[i] = v
		{"p.mapElem.f", true},   // x.f[k] = v
		{"p.opElem.f", true},    // x.f[i] += v
		{"p.incElem.f", true},   // x.f[i]--
		{"p.grown.f", true},     // x.f = append(x.f, v)
		{"p.readElem.f", false}, // _ = x.f[0]
	} {
		if got[c.key] != c.unread {
			t.Errorf("%s: unread = %v, want %v", c.key, got[c.key], c.unread)
		}
		delete(got, c.key)
	}
	for key := range got {
		t.Errorf("%s reported unread; the table does not cover it", key)
	}
	if len(stale) != 1 || stale[0] != "p.gone.f" {
		t.Errorf("stale allow-list entries = %v, want [p.gone.f]", stale)
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

// relPos is pos as path:line relative to the test's directory.
func relPos(t *testing.T, fset *token.FileSet, pos token.Pos) string {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	p := fset.Position(pos)
	rel, _ := filepath.Rel(wd, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
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
