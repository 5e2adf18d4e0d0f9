package ttmcas_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the package-level declarations under internal/
// that no non-test code reaches but that stay in production files, each
// with the reason. Keys are types.Func.FullName for functions and
// methods, and "<import path>.<name>" for types, vars and consts.
var unreachedAllowed = map[string]string{}

// TestProductionCodeIsReached fails when a package-level function,
// method, type, var or const under internal/ is unreachable from
// non-test code: a test-only helper belongs in a _test.go file, and code
// nothing calls is deleted.
func TestProductionCodeIsReached(t *testing.T) {
	dead, err := unreached(".", "ttmcas")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range dead {
		if _, ok := unreachedAllowed[d.name]; ok {
			allowed[d.name] = true
			continue
		}
		t.Errorf("%s: %s is not reached from non-test code; delete it or move it into a _test.go file", d.pos, d.name)
	}
	for name := range unreachedAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted %s is reached or gone; drop its entry", name)
		}
	}
}

// TestReachabilityFixture holds the checker to a small module whose dead
// declarations are known: an unreached exported function and a function
// reached only from it. A function called from main, a String method and
// a function called only from bench/ are live.
func TestReachabilityFixture(t *testing.T) {
	dead, err := unreached(filepath.Join("testdata", "reach"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"fixture/internal/lib.Dead", "fixture/internal/lib.deadOnly"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

type deadDecl struct {
	pos  token.Position
	name string
}

// modulePackage is one type-checked package of the module under scan.
type modulePackage struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// reachScan type-checks a module's non-test code from source and walks
// its references from the roots.
type reachScan struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*modulePackage
	// decls maps each package-level object of the module to the syntax
	// whose references it reaches: a function's declaration, a type's
	// or a value's spec.
	decls map[types.Object]ast.Node
	// groups ties each member of an iota const block to the whole block:
	// reaching one member reaches all.
	groups  map[types.Object][]types.Object
	reached map[types.Object]bool
	queue   []types.Object
	// ifaces maps each interface a reached type may satisfy to whether
	// all its methods count as called (a standard-library interface);
	// for a module interface, called holds the methods reached code
	// calls.
	ifaces map[*types.Interface]bool
	called map[*types.Func]bool
}

// unreached returns the package-level declarations under the module's
// internal/ directory that no non-test code reaches, sorted by position.
// The roots are main and init functions, the initializers of blank
// vars, the exported API of the root package, and every declaration of
// bench/, test files included (the benchmark is its own module, which
// compiles against internal/). A method is reached when it is named, or
// when its type is reached and satisfies an interface whose method is
// called; any standard-library interface counts as called.
func unreached(root, module string) ([]deadDecl, error) {
	// The standard library is type-checked from source; without cgo, net
	// and os/user need no C toolchain.
	saved := build.Default
	build.Default.CgoEnabled = false
	defer func() { build.Default = saved }()
	s := &reachScan{
		fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		pkgs:    map[string]*modulePackage{},
		decls:   map[types.Object]ast.Node{},
		groups:  map[types.Object][]types.Object{},
		reached: map[types.Object]bool{},
		ifaces:  map[*types.Interface]bool{},
		called:  map[*types.Func]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		_, err = s.load(s.importPath(path))
		return err
	})
	if err != nil {
		return nil, err
	}
	var roots []types.Object
	var blanks []func()
	for path, p := range s.pkgs {
		r, b := s.collect(path, p)
		roots = append(roots, r...)
		blanks = append(blanks, b...)
	}
	s.addStdInterfaces()
	for _, obj := range roots {
		s.reach(obj)
	}
	for _, walk := range blanks {
		walk()
	}
	s.walk()
	var dead []deadDecl
	for obj := range s.decls {
		if s.reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), module+"/internal/") {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			name = fn.FullName()
		}
		dead = append(dead, deadDecl{pos: s.fset.Position(obj.Pos()), name: name})
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return dead, nil
}

func (s *reachScan) importPath(dir string) string {
	rel, _ := filepath.Rel(s.root, dir)
	if rel == "." {
		return s.module
	}
	return s.module + "/" + filepath.ToSlash(rel)
}

func (s *reachScan) inModule(path string) bool {
	return path == s.module || strings.HasPrefix(path, s.module+"/")
}

func (s *reachScan) isBench(path string) bool {
	return path == s.module+"/bench" || strings.HasPrefix(path, s.module+"/bench/")
}

// Import type-checks module packages itself and hands the rest to the
// standard library's source importer.
func (s *reachScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

func (s *reachScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !s.inModule(path) {
		return s.std.ImportFrom(path, dir, mode)
	}
	p, err := s.load(path)
	if err == nil && p == nil {
		err = fmt.Errorf("no Go files for %s", path)
	}
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the module package at path, once. Test
// files are left out except under bench/. A directory without Go files
// yields nil.
func (s *reachScan) load(path string) (*modulePackage, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := s.root
	if path != s.module {
		dir = filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, s.module+"/")))
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if s.isBench(path) {
		names = append(append([]string(nil), names...), bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &modulePackage{files: files, info: info, pkg: pkg}
	s.pkgs[path] = p
	return p, nil
}

// collect records the package's declarations and named interfaces, and
// returns its roots and the walks of its blank vars' initializers.
func (s *reachScan) collect(path string, p *modulePackage) (roots []types.Object, blanks []func()) {
	bench := s.isBench(path)
	api := path == s.module
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "_" {
					continue
				}
				obj := p.info.Defs[d.Name].(*types.Func)
				s.decls[obj] = d
				isMain := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main")
				if bench || isMain || api && obj.Exported() && (d.Recv == nil || exportedRecv(obj)) {
					roots = append(roots, obj)
				}
			case *ast.GenDecl:
				var block []types.Object
				for i, spec := range d.Specs {
					var names []*ast.Ident
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{sp.Name}
					case *ast.ValueSpec:
						names = sp.Names
						if d.Tok == token.CONST && i == 0 && usesIota(sp) {
							block = []types.Object{}
						}
					}
					for _, n := range names {
						if n.Name == "_" {
							blanks = append(blanks, func() { s.walkNode(p, spec) })
							continue
						}
						obj := p.info.Defs[n]
						s.decls[obj] = spec
						if block != nil {
							block = append(block, obj)
						}
						if bench || api && obj.Exported() {
							roots = append(roots, obj)
						}
					}
				}
				for _, obj := range block {
					s.groups[obj] = block
				}
			}
		}
	}
	for _, name := range p.pkg.Scope().Names() {
		if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
			s.addInterface(tn.Type(), false)
		}
	}
	return roots, blanks
}

func exportedRecv(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Exported()
}

func usesIota(sp *ast.ValueSpec) bool {
	found := false
	for _, v := range sp.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

// addInterface records t if it is a non-generic interface with methods.
func (s *reachScan) addInterface(t types.Type, std bool) {
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
		s.ifaces[it] = s.ifaces[it] || std
	}
}

// addStdInterfaces records the named interfaces of every package outside
// the module that the module imports, directly or not, and error.
func (s *reachScan) addStdInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if s.inModule(pkg.Path()) {
			return
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type(), true)
			}
		}
	}
	for _, p := range s.pkgs {
		visit(p.pkg)
	}
	s.addInterface(types.Universe.Lookup("error").Type(), true)
	// errors.Is, As and Unwrap assert these unnamed interfaces on the
	// errors they walk.
	conv, err := (&types.Config{}).Check("conventions", s.fset, []*ast.File{errorConventions(s.fset)}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range conv.Scope().Names() {
		s.addInterface(conv.Scope().Lookup(name).Type(), true)
	}
}

func errorConventions(fset *token.FileSet) *ast.File {
	f, err := parser.ParseFile(fset, "conventions.go", `package conventions
type isError interface{ Is(error) bool }
type asError interface{ As(any) bool }
type unwrapError interface{ Unwrap() error }
type unwrapErrors interface{ Unwrap() []error }
`, 0)
	if err != nil {
		panic(err)
	}
	return f
}

func (s *reachScan) reach(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if _, ok := s.decls[obj]; !ok || s.reached[obj] {
		return
	}
	s.reached[obj] = true
	s.queue = append(s.queue, obj)
	for _, member := range s.groups[obj] {
		s.reach(member)
	}
}

// walk drains the queue, then reaches the methods through which reached
// types satisfy called interfaces, until nothing new is reached.
func (s *reachScan) walk() {
	for {
		for len(s.queue) > 0 {
			obj := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			s.walkNode(s.pkgs[obj.Pkg().Path()], s.decls[obj])
		}
		s.reachImplementations()
		if len(s.queue) == 0 {
			return
		}
	}
}

// walkNode reaches every package-level object the syntax names. A call
// of an interface method records the method as called.
func (s *reachScan) walkNode(p *modulePackage, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				s.called[fn.Origin()] = true
				s.addInterface(recv.Type(), false)
				return true
			}
		}
		if obj != nil {
			s.reach(obj)
		}
		return true
	})
}

// reachImplementations reaches each method through which a reached
// named type satisfies an interface whose methods are called.
func (s *reachScan) reachImplementations() {
	for obj := range s.reached {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for it, std := range s.ifaces {
			first := it.Method(0)
			if mset.Lookup(first.Pkg(), first.Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); std || s.called[m] {
					s.reach(mset.Lookup(m.Pkg(), m.Name()).Obj())
				}
			}
		}
	}
}
