package samrpart

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability ratchet. Every exported name of an internal/ package, and
// every exported field of an exported internal/ struct, must be used by the
// non-test code of some other package — cmd/, examples/ and the bench/
// module included — or appear in testdata/reach_allowlist.txt with one
// reason from a closed set. An unlisted finding fails the test, and so does a
// listed entry that is no longer a finding, so the list can only shrink.
//
// Three kinds of name are exempt without a list entry: a method that
// implements an interface (one of the module's, or a standard one the
// standard library calls through: error, Unwrap/Is, fmt.Stringer,
// io.Writer, gob.GobEncoder/GobDecoder); a type that appears in the
// signature, type or exported fields of a name used from outside its
// package; and a field a codec names (it has a struct tag, or its struct is
// encoded with encoding/gob or encoding/json, where unexporting it would
// silently drop it from the encoding).

const (
	modulePath    = "samrpart"
	allowlistFile = "testdata/reach_allowlist.txt"
)

// allowReasons is the closed set of reasons an allowlist entry may give.
var allowReasons = map[string]string{
	"entry":  "documented entry point",
	"oracle": "test oracle or fixture",
	"enum":   "sentinel or enum of an exported type",
	"bench":  "held by bench/",
}

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports")
	}
	findings, benchUsed, err := reachFindings(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(allowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	var unlisted, stale, wrong []string
	for _, name := range sortedKeys(findings) {
		reason, ok := allow[name]
		switch {
		case !ok:
			unlisted = append(unlisted, name+"  ("+findings[name]+")")
		case reason == "bench" && !benchUsed[name]:
			wrong = append(wrong, name+": reason bench, but bench/ does not use it")
		}
	}
	for _, name := range sortedKeys(allow) {
		if _, ok := findings[name]; !ok {
			stale = append(stale, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d exported names no other package uses; delete or unexport them "+
			"(or, if one fits a reason, list it in %s):\n\t%s",
			len(unlisted), allowlistFile, strings.Join(unlisted, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale entries in %s (now used from outside, or gone); delete them:\n\t%s",
			len(stale), allowlistFile, strings.Join(stale, "\n\t"))
	}
	if len(wrong) > 0 {
		t.Errorf("misreasoned entries in %s:\n\t%s", allowlistFile, strings.Join(wrong, "\n\t"))
	}
}

// readAllowlist parses lines of the form "name reason [# comment]".
func readAllowlist(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"name reason\", got %q", file, n, line)
		}
		if _, ok := allowReasons[fields[1]]; !ok {
			return nil, fmt.Errorf("%s:%d: reason %q is not one of %v", file, n, fields[1], sortedKeys(allowReasons))
		}
		if _, dup := allow[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", file, n, fields[0])
		}
		allow[fields[0]] = fields[1]
	}
	return allow, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checked is one type-checked package of the module (non-test files only).
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's packages from their directories and
// the standard library from source.
type moduleLoader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checked
}

func (l *moduleLoader) Import(p string) (*types.Package, error) {
	return l.ImportFrom(p, "", 0)
}

func (l *moduleLoader) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if p == modulePath || strings.HasPrefix(p, modulePath+"/") {
		c, err := l.load(p)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return l.std.ImportFrom(p, dir, mode)
}

func (l *moduleLoader) load(p string) (*checked, error) {
	if c, ok := l.pkgs[p]; ok {
		if c == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return c, nil
	}
	l.pkgs[p] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	c := &checked{files: files, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	conf := types.Config{Importer: l}
	if c.pkg, err = conf.Check(p, l.fset, files, c.info); err != nil {
		return nil, err
	}
	l.pkgs[p] = c
	return c, nil
}

// parseDir parses the non-test Go files of dir that the default build
// context would compile.
func (l *moduleLoader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadAll type-checks every package directory under root.
func loadAll(root string) (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*checked),
	}
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, _ := filepath.Rel(root, p)
				paths = append(paths, path.Join(modulePath, filepath.ToSlash(rel)))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reachFindings returns every unreached exported name of internal/ with a
// note saying whether its own package uses it, and the set of those names
// bench/ uses.
func reachFindings(root string) (findings map[string]string, benchUsed map[string]bool, err error) {
	l, err := loadAll(root)
	if err != nil {
		return nil, nil, err
	}
	benchPkg := modulePath + "/bench"

	// Who names each module object: its own package (inside), another
	// package of the module (outside) or bench/ (bench).
	inside := make(map[types.Object]bool)
	outside := make(map[types.Object]bool)
	bench := make(map[types.Object]bool)
	mark := func(user *types.Package, obj types.Object) {
		obj = origin(obj)
		switch {
		case !inModule(obj.Pkg()):
		case obj.Pkg() == user:
			inside[obj] = true
		case user.Path() == benchPkg:
			bench[obj] = true
		default:
			outside[obj] = true
		}
	}
	for _, c := range l.pkgs {
		for _, obj := range c.info.Uses {
			mark(c.pkg, obj)
		}
		// A promoted selection also names the embedded fields it walks.
		for _, sel := range c.info.Selections {
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(i)
				mark(c.pkg, f)
				t = f.Type()
			}
		}
	}

	ifaces := interfaces(l)
	implementsOne := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		ptr := recv
		if _, ok := recv.(*types.Pointer); !ok {
			ptr = types.NewPointer(recv)
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil && types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}

	// Module types reachable from the signature, type or exported fields of
	// a name used from outside its package.
	reachable := make(map[*types.TypeName]bool)
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if !inModule(t.Obj().Pkg()) {
				return
			}
			reachable[t.Origin().Obj()] = true
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
			walk(t.Underlying())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, used := range []map[types.Object]bool{outside, bench} {
		for obj := range used {
			walk(obj.Type())
		}
	}

	encoded, err := encodedStructs(l)
	if err != nil {
		return nil, nil, err
	}
	findings = make(map[string]string)
	benchUsed = make(map[string]bool)
	report := func(name, kind string, obj types.Object) {
		if outside[obj] {
			return
		}
		if inside[obj] {
			findings[name] = kind + ", own package only"
		} else {
			findings[name] = kind + ", no non-test use"
		}
		if bench[obj] {
			findings[name] = kind + ", used by bench/ only"
			benchUsed[name] = true
		}
	}
	for p, c := range l.pkgs {
		if !strings.HasPrefix(p, modulePath+"/internal/") {
			continue
		}
		prefix := strings.TrimPrefix(p, modulePath+"/") + "."
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if obj.Exported() && !(isType && reachable[tn]) {
				report(prefix+name, kindOf(obj), obj)
			}
			named, ok := obj.Type().(*types.Named)
			if !isType || !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implementsOne(m) {
					report(prefix+name+"."+m.Name(), "method", m)
				}
			}
			// A codec's fields are named by the wire format, not by Go code.
			if st, ok := named.Underlying().(*types.Struct); ok && !encoded[st] {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && st.Tag(i) == "" {
						report(prefix+name+"."+f.Name(), "field", f)
					}
				}
			}
		}
	}
	return findings, benchUsed, nil
}

// encodedStructs returns the structs encoding/gob or encoding/json reads by
// reflection: every struct reachable through exported fields from the
// static type of a value passed to an encoder or decoder, directly or
// through a module function that forwards its interface-typed argument to
// one (transport.EncodeGob).
func encodedStructs(l *moduleLoader) (map[*types.Struct]bool, error) {
	codecs := make(map[types.Object]int) // function -> index of the value argument
	for _, c := range []struct {
		pkg, typ, fn string
		arg          int
	}{
		{"encoding/gob", "Encoder", "Encode", 0},
		{"encoding/gob", "Decoder", "Decode", 0},
		{"encoding/json", "Encoder", "Encode", 0},
		{"encoding/json", "Decoder", "Decode", 0},
		{"encoding/json", "", "Marshal", 0},
		{"encoding/json", "", "MarshalIndent", 0},
		{"encoding/json", "", "Unmarshal", 1},
	} {
		pkg, err := l.Import(c.pkg)
		if err != nil {
			return nil, err
		}
		obj := pkg.Scope().Lookup(c.fn)
		if c.typ != "" {
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(pkg.Scope().Lookup(c.typ).Type()), true, pkg, c.fn)
		}
		codecs[obj] = c.arg
	}
	var roots []types.Type
	for grew := true; grew; {
		grew, roots = false, roots[:0]
		for _, c := range l.pkgs {
			for _, f := range c.files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						fun := call.Fun
						if sel, ok := fun.(*ast.SelectorExpr); ok {
							fun = sel.Sel
						}
						id, ok := fun.(*ast.Ident)
						if !ok {
							return true
						}
						i, ok := codecs[origin(c.info.Uses[id])]
						if !ok || i >= len(call.Args) {
							return true
						}
						arg := call.Args[i]
						if v, ok := c.info.Uses[identOf(arg)].(*types.Var); ok && types.IsInterface(v.Type()) {
							if j := paramIndex(c.info, fd, v); j >= 0 {
								fn := c.info.Defs[fd.Name]
								if k, ok := codecs[fn]; !ok || k != j {
									codecs[fn], grew = j, true
								}
								return true
							}
						}
						roots = append(roots, c.info.TypeOf(arg))
						return true
					})
				}
			}
		}
	}
	encoded := make(map[*types.Struct]bool)
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(u.Elem())
		case *types.Struct:
			encoded[u] = true
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					walk(u.Field(i).Type())
				}
			}
		}
	}
	for _, t := range roots {
		walk(t)
	}
	return encoded, nil
}

// paramIndex returns v's position among fd's parameters, or -1.
func paramIndex(info *types.Info, fd *ast.FuncDecl, v *types.Var) int {
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == v {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// identOf returns the identifier an expression names, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// interfaces lists the interface types whose methods are exempt: every
// interface the module declares, and the standard ones whose methods the
// standard library calls on the module's values.
func interfaces(l *moduleLoader) []*types.Interface {
	var out []*types.Interface
	for _, c := range l.pkgs {
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				if _, isType := scope.Lookup(name).(*types.TypeName); isType {
					out = append(out, it)
				}
			}
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std := []struct{ pkg, name string }{
		{"fmt", "Stringer"},
		{"io", "Writer"},
		{"encoding/gob", "GobEncoder"},
		{"encoding/gob", "GobDecoder"},
	}
	for _, s := range std {
		pkg, err := l.Import(s.pkg)
		if err != nil {
			continue
		}
		out = append(out, pkg.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	// errors.Is and errors.As walk these without naming a type.
	errT := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false))
	is := types.NewFunc(token.NoPos, nil, "Is", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)),
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool])), false))
	for _, f := range []*types.Func{unwrap, is} {
		out = append(out, types.NewInterfaceType([]*types.Func{f}, nil).Complete())
	}
	return out
}

// origin maps an instantiated generic method or field to its declaration
// (nil stays nil).
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func inModule(p *types.Package) bool {
	return p != nil && (p.Path() == modulePath || strings.HasPrefix(p.Path(), modulePath+"/"))
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Var:
		return "var"
	case *types.Const:
		return "const"
	}
	return "name"
}
