package terradir_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// optionStructs are the option structs whose fields must each have a
// production writer, as "package directory.Type". core.Config (the paper's
// parameters) and membership.Config (wiring) are out of scope.
var optionStructs = []string{
	"internal/overlay.Options",
	"internal/overlay.MembershipOptions",
	"internal/overlay.PersistOptions",
	"internal/overlay.FaultOptions",
	"internal/overlay.TCPTransportOptions",
	"internal/overlay.LocalClusterOptions",
	"internal/persist.Options",
	"internal/membership.Options",
	"internal/gateway.Options",
}

// testOnlyFields are the option fields kept although no production code
// writes them, each with its reason.
var testOnlyFields = map[string]string{
	"internal/overlay.LocalClusterOptions.NetDelay": "bench/cluster.go calls overlay.NewLocalTransport(0), " +
		"which pins the delay parameter behind it (ROADMAP item 2(c))",
}

// modulePath is the import path of the repository root.
const modulePath = "terradir"

// TestOptionFieldsHaveProductionSetters keeps the rule that a knob with one
// good value is a constant: every exported field of the option structs above
// must be written — as a composite-literal key or by an assignment — by a
// non-test file under cmd/, bench/ or internal/, or by terradir.go. A write
// that only fills in a default (an assignment guarded by a test of the same
// field) does not count, and neither do examples/ or _test.go files.
func TestOptionFieldsHaveProductionSetters(t *testing.T) {
	files := parseProductionFiles(t)
	structs := map[string]*ast.StructType{}
	fieldTypes := map[string]map[string]string{} // struct → field → qualified struct type
	aliases := map[string]string{}               // qualified alias → qualified target
	for _, f := range files {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				name := f.pkg + "." + ts.Name.Name
				if ts.Assign != 0 {
					aliases[name] = f.qualify(ts.Type)
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				structs[name] = st
				fieldTypes[name] = map[string]string{}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						fieldTypes[name][n.Name] = f.qualify(fl.Type)
					}
				}
			}
		}
	}
	resolve := func(q string) string {
		if a, ok := aliases[q]; ok {
			return a
		}
		return q
	}

	written := map[string]bool{} // "struct.Field"
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st := resolve(f.qualify(n.Type))
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							written[st+"."+k.Name] = true
						}
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					markAssignments(f, n, resolve, fieldTypes, written)
				}
			}
			return true
		})
	}

	for _, name := range optionStructs {
		q := modulePath + "/" + name
		st, ok := structs[q]
		if !ok {
			t.Errorf("option struct %s not found", name)
			continue
		}
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if !n.IsExported() {
					continue
				}
				field := name + "." + n.Name
				_, excepted := testOnlyFields[field]
				switch {
				case written[q+"."+n.Name] && excepted:
					t.Errorf("%s has a production writer now: drop it from testOnlyFields", field)
				case !written[q+"."+n.Name] && !excepted:
					t.Errorf("%s: no production code sets it; make it a constant or give it a caller", field)
				}
			}
		}
	}
	for field := range testOnlyFields {
		name := field[:strings.LastIndex(field, ".")]
		if _, ok := fieldTypes[modulePath+"/"+name][field[len(name)+1:]]; !ok {
			t.Errorf("testOnlyFields names %s, which does not exist", field)
		}
	}
}

// markAssignments records, for one function, every assignment to a field of
// a struct whose type the function's own declarations reveal: parameters and
// receivers, composite literals, and fields and dereferences of those. An
// assignment guarded by an if whose condition reads the same field fills in
// a default and is not recorded.
func markAssignments(f *goFile, fn *ast.FuncDecl, resolve func(string) string, fieldTypes map[string]map[string]string, written map[string]bool) {
	vars := map[string]string{}
	var typeOf func(e ast.Expr) string
	typeOf = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return vars[e.Name]
		case *ast.ParenExpr:
			return typeOf(e.X)
		case *ast.StarExpr:
			return typeOf(e.X)
		case *ast.UnaryExpr:
			return typeOf(e.X)
		case *ast.CompositeLit:
			return resolve(f.qualify(e.Type))
		case *ast.SelectorExpr:
			return fieldTypes[typeOf(e.X)][e.Sel.Name]
		}
		return ""
	}
	declare := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, fl := range fields.List {
			for _, n := range fl.Names {
				vars[n.Name] = resolve(f.qualify(fl.Type))
			}
		}
	}
	declare(fn.Recv)
	declare(fn.Type.Params)
	// Declarations first, in source order, so a later assignment sees them.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						vars[id.Name] = typeOf(n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				switch {
				case n.Type != nil:
					vars[id.Name] = resolve(f.qualify(n.Type))
				case i < len(n.Values):
					vars[id.Name] = typeOf(n.Values[i])
				}
			}
		case *ast.FuncLit:
			declare(n.Type.Params)
		}
		return true
	})
	var guards []ast.Expr // conditions of the enclosing ifs
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			guards = append(guards, n.Cond)
			ast.Inspect(n.Body, walk)
			guards = guards[:len(guards)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, walk)
			}
			return false
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, l := range n.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				st := typeOf(sel.X)
				if _, ok := fieldTypes[st][sel.Sel.Name]; !ok {
					continue
				}
				if !readsAny(guards, types.ExprString(sel)) {
					written[st+"."+sel.Sel.Name] = true
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// goFile is one parsed production file and its package's import path.
type goFile struct {
	ast     *ast.File
	pkg     string
	imports map[string]string // local name → import path
}

// qualify names the type e refers to as "import/path.Type", or "" when e is
// not a (pointer to a) named type.
func (f *goFile) qualify(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.qualify(e.X)
	case *ast.Ident:
		return f.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if p, ok := f.imports[x.Name]; ok {
				return p + "." + e.Sel.Name
			}
		}
	}
	return ""
}

// parseProductionFiles parses terradir.go and every non-test Go file under
// cmd/, bench/ and internal/.
func parseProductionFiles(t *testing.T) []*goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*goFile
	add := func(p string) {
		a, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		f := &goFile{ast: a, pkg: modulePath, imports: map[string]string{}}
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			f.pkg += "/" + dir
		}
		for _, im := range a.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			f.imports[name] = ip
		}
		files = append(files, f)
	}
	add("terradir.go")
	for _, root := range []string{"cmd", "bench", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			add(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// readsAny reports whether any of the expressions reads the selector
// target, such as o.Seed.
func readsAny(exprs []ast.Expr, target string) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && types.ExprString(sel) == target {
				found = true
			}
			return !found
		})
	}
	return found
}
