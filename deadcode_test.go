package naspipe_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadExceptions lists the package-level names under internal/ and in the
// root package that no non-test code references but that stay, keyed as
// the check prints them, each with its reason. A name another package's
// tests need stays here; one only its own package's tests need moves into
// that package's _test.go files instead.
var deadExceptions = map[string]string{
	"naspipe.NLPc0":            "Table 1 space: library callers pick a space by value, as the other four",
	"naspipe.CVc1":             "Table 1 space: library callers pick a space by value, as the other four",
	"naspipe.CVc3":             "Table 1 space: library callers pick a space by value, as the other four",
	"naspipe.HealthRunning":    "health state: library callers compare SuperviseReport.FinalState with it",
	"naspipe.HealthDegraded":   "health state: library callers compare SuperviseReport.FinalState with it",
	"naspipe.HealthRecovering": "health state: library callers compare SuperviseReport.FinalState with it",
	"naspipe.HealthDone":       "health state: library callers compare SuperviseReport.FinalState with it",
	"naspipe.HealthFailed":     "health state: library callers compare SuperviseReport.FinalState with it",
	"naspipe.HealthTransition": "names SuperviseConfig.Observer's argument, whose type lives in internal/supervise",
	"trace.Trace.Equal":        "global access-order equality: the engine and root-package tests compare whole runs with it",
	"obs.Registry.Families":    "family metadata: the naming-convention lint (service) and the exposition tests (obs, telemetry) read it",
	"memctx.Manager.Resident":  "residency probe: the memctx and prefetch tests read it",
	"memo.Table.Len":           "entry count: the data and supernet tests check their memo stays within its limit",
}

// TestNoDeadExports fails for each package-level func, method, type, var
// or const declared in non-test code under internal/ or in the root
// package that no non-test code of the module references (cmd/, bench/ and
// examples/ count as callers), unless deadExceptions names it.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadDecls(".", "naspipe")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dead {
		if _, ok := deadExceptions[d.name]; ok {
			seen[d.name] = true
			continue
		}
		t.Errorf("%s %s: no non-test code references it; delete it, move it into a _test.go file, or add it to deadExceptions with a reason", d.pos, d.name)
	}
	for name := range deadExceptions {
		if !seen[name] {
			t.Errorf("deadExceptions: %s is referenced by non-test code or gone; drop it from the table", name)
		}
	}
}

// TestDeadDeclsFixture runs the check on a module under testdata that
// holds one dead func beside a used func, a method reached only through
// an interface, a default promoted through embedding, and a func used only
// under darwin: it must report exactly the dead one.
func TestDeadDeclsFixture(t *testing.T) {
	dead, err := deadDecls(filepath.Join("testdata", "deadcode"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.pos+" "+d.name)
	}
	want := []string{"internal/lib/lib.go:9 lib.Dead"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dead names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadcodeConfigs are the targets CI builds. A name counts as used when
// any of them uses it, so the kernels split by build tags count.
var deadcodeConfigs = [][2]string{{"linux", "amd64"}, {"darwin", "arm64"}}

// deadDecl is one unreferenced declaration: pos is "file:line" relative to
// the module root, name is "pkg.Name" or "pkg.Type.Method".
type deadDecl struct{ pos, name string }

// deadDecls loads every non-test package of the module at root (import
// path module) under each of deadcodeConfigs and returns the declarations
// checked (those under internal/ and in the root package) that no
// configuration references, sorted by position.
func deadDecls(root, module string) ([]deadDecl, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	results := make([]map[deadDecl]bool, len(deadcodeConfigs))
	errs := make([]error, len(deadcodeConfigs))
	var wg sync.WaitGroup
	for i, c := range deadcodeConfigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = newDeadLoader(root, module, c[0], c[1]).decls(dirs)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	used := map[deadDecl]bool{}
	for _, r := range results {
		for d, u := range r {
			used[d] = used[d] || u
		}
	}
	var dead []deadDecl
	for d, u := range used {
		if !u {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].pos != dead[j].pos {
			return lessPos(dead[i].pos, dead[j].pos)
		}
		return dead[i].name < dead[j].name
	})
	return dead, nil
}

// lessPos orders "file:line" by file, then numerically by line.
func lessPos(a, b string) bool {
	fa, la, _ := strings.Cut(a, ":")
	fb, lb, _ := strings.Cut(b, ":")
	if fa != fb {
		return fa < fb
	}
	return len(la) < len(lb) || len(la) == len(lb) && la < lb
}

// packageDirs lists the directories under root that may hold a package,
// skipping testdata and hidden or underscore directories as the go
// command does.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// deadLoader type-checks the module's packages from source under one
// build configuration. Standard-library packages are checked from GOROOT
// without function bodies: only their declarations matter here.
type deadLoader struct {
	ctx          build.Context
	fset         *token.FileSet
	root, module string
	sizes        types.Sizes
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File // module packages only
	info         *types.Info
}

func newDeadLoader(root, module, goos, goarch string) *deadLoader {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = goos, goarch, false
	return &deadLoader{
		ctx: ctx, fset: token.NewFileSet(), root: root, module: module,
		sizes: types.SizesFor("gc", goarch),
		pkgs:  map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
}

func (l *deadLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *deadLoader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	inModule := path == l.module || strings.HasPrefix(path, l.module+"/")
	var bp *build.Package
	var err error
	if inModule {
		bp, err = l.ctx.ImportDir(filepath.Join(l.root, strings.TrimPrefix(path, l.module)), 0)
		if bp != nil {
			bp.ImportPath = path
		}
	} else {
		bp, err = l.ctx.Import(path, dir, 0)
	}
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[bp.ImportPath]; ok {
		return p, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !inModule {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fd.Body = nil
				}
			}
		}
		files = append(files, f)
	}
	var typeErrs []error
	conf := types.Config{Importer: l, Sizes: l.sizes, IgnoreFuncBodies: !inModule}
	info := (*types.Info)(nil)
	if inModule {
		// A module package must check cleanly; the standard library's
		// bodiless declarations raise errors that do not matter here.
		conf.Error = func(err error) { typeErrs = append(typeErrs, err) }
		info = l.info
		l.files[bp.ImportPath] = files
	} else {
		conf.Error = func(error) {}
	}
	p, _ := conf.Check(bp.ImportPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s/%s: %w", l.ctx.GOOS, l.ctx.GOARCH, errors.Join(typeErrs...))
	}
	l.pkgs[bp.ImportPath] = p
	return p, nil
}

// decls loads every package in dirs and reports, for each declaration it
// checks, whether non-test code references it under this configuration.
func (l *deadLoader) decls(dirs []string) (map[deadDecl]bool, error) {
	for _, dir := range dirs {
		rel, _ := filepath.Rel(l.root, dir)
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(path); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, err
		}
	}

	// The declarations checked, with the span a reference from inside
	// does not count in: a func's own body, a type's own spec. Nor does a
	// method's receiver count as a reference to its type.
	type span struct{ from, to token.Pos }
	decls := map[types.Object]deadDecl{}
	spans := map[types.Object]span{}
	recvs := map[*ast.Ident]bool{}
	for path, files := range l.files {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		if rel != "" && rel != "internal" && !strings.HasPrefix(rel, "internal/") {
			continue
		}
		add := func(id *ast.Ident, s span, recv string) {
			obj := l.info.Defs[id]
			if obj == nil || id.Name == "_" || recv == "" && id.Name == "init" {
				return
			}
			pos := l.fset.Position(id.Pos())
			file, _ := filepath.Rel(l.root, pos.Filename)
			decls[obj] = deadDecl{
				pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line),
				name: obj.Pkg().Name() + "." + recv + id.Name,
			}
			spans[obj] = s
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil {
						id := recvType(d.Recv.List[0].Type)
						recvs[id] = true
						recv = id.Name + "."
					}
					add(d.Name, span{d.Pos(), d.End()}, recv)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, span{s.Pos(), s.End()}, "")
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, span{s.Pos(), s.End()}, "")
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = originOf(obj)
		if _, ok := decls[obj]; !ok || used[obj] || recvs[id] {
			continue
		}
		if s := spans[obj]; s.from <= id.Pos() && id.Pos() < s.to {
			continue
		}
		used[obj] = true
	}
	l.markInterfaceMethods(decls, used)

	out := map[deadDecl]bool{}
	for obj, d := range decls {
		out[d] = used[obj]
	}
	return out, nil
}

// markInterfaceMethods counts a method as used when its receiver type, or
// a pointer to it, implements an interface that has the method: one the
// module's code names or spells out, one declared by a package it imports,
// or error. The method found may be promoted from an embedded type.
func (l *deadLoader) markInterfaceMethods(decls map[types.Object]deadDecl, used map[types.Object]bool) {
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range l.info.Types {
		addIface(tv.Type)
	}
	for _, p := range l.pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
					addIface(named)
				}
			}
		}
	}
	for obj := range decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams() != nil {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for _, v := range []types.Type{named, types.NewPointer(named)} {
			ms := types.NewMethodSet(v)
			have := map[string]bool{}
			for i := 0; i < ms.Len(); i++ {
				have[ms.At(i).Obj().Name()] = true
			}
		next:
			for _, it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					if !have[it.Method(i).Name()] {
						continue next
					}
				}
				if !types.Implements(v, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name()); obj != nil {
						used[originOf(obj)] = true
					}
				}
			}
		}
	}
}

// originOf maps a method of an instantiated generic type back to its
// declaration.
func originOf(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// recvType is the type name of a method receiver: T in T, *T, T[P] and
// *T[P].
func recvType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}
