package dtse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/btpc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sbd"
)

// testOnlyExports names the exported functions and methods of the root
// package and under internal/ that no non-test code calls but that stay on
// purpose, keyed "pkg.Func" or "pkg.Type.Method", each with the reason it
// stays.
var testOnlyExports = map[string]string{
	"memlib.Tech.Scale":                   "backs the relative-comparisons-survive-rescaling test (DESIGN §2)",
	"img.Gradient":                        "synthetic image fixture for the btpc and core tests",
	"img.Noise":                           "synthetic image fixture for the btpc and core tests",
	"img.Flat":                            "synthetic image fixture for the btpc and core tests",
	"core.ExploreBudgetsPipelinedContext": "the only path to Table 3's off-chip jump (EXPERIMENTS.md Table 3)",
	"core.BuildDemonstrator":              "fixture of the sbd schedules/distributions goldens and of spec's canonical.golden",
	"spec.Spec.GroupNames":                "spec fixture helper shared by several test packages",
	"reuse.Profile.Cold":                  "printed into internal/core's decoder.golden; export_test.go cannot reach across packages",
	"obs.Collector.Find":                  "span lookup fixture used by the root, core, sbd and obs tests",
	"inplace.PeakWords":                   "independent in-place word bound, kept for a certificate checker of assign",
	"inplace.SumWords":                    "independent in-place word bound, kept for a certificate checker of assign",
	"workloads.MotionEstimation":          "builds rows of the byte-pinned explore.golden and canonical.golden",
	"workloads.Wavelet":                   "builds rows of the byte-pinned explore.golden and canonical.golden",
	"workloads.FIRFilter":                 "builds rows of the byte-pinned explore.golden and canonical.golden",
	"spec.Spec.MarshalJSON":               "called by encoding/json",
	"spec.Spec.UnmarshalJSON":             "called by encoding/json",
	"dtse.specField.UnmarshalJSON":        "called by encoding/json",
	"memo.Key.MarshalText":                "called by encoding/json (handoff record keys)",
	"memo.Key.UnmarshalText":              "called by encoding/json (handoff record keys)",
}

// TestNoTestOnlyExports fails on any exported function or method of the
// root package or under internal/ that no non-test Go file in the module
// uses, outside the testOnlyExports list. A package-level function counts
// as used only where it is named as that package's function: through a
// selector on an import of its package (core.RunAll), or as a bare
// identifier inside its own package. So a wrapper does not keep its target
// alive by sharing its name, nor a method call by sharing a function's
// name. A method counts as used wherever its name appears, so the check
// catches code only tests reach, not every dead method.
func TestNoTestOnlyExports(t *testing.T) {
	type srcFile struct {
		dir string
		f   *ast.File
	}
	var files []srcFile
	pkgName := map[string]string{} // directory → package name
	forEachNonTestFile(t, func(p string, f *ast.File) {
		files = append(files, srcFile{path.Dir(p), f})
		pkgName[path.Dir(p)] = f.Name.Name
	})
	type export struct {
		key string // "pkg.Func" or "pkg.Type.Method"
		use string // "dir.Func" for a function, the bare name for a method
	}
	var exports []export
	used := map[string]bool{} // "dir.Func" of functions, bare names of methods
	for _, sf := range files {
		imports := map[string]string{} // local name → directory, module imports only
		for _, imp := range sf.f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := moduleDir(ip)
			if !ok {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		checked := sf.dir == "." || strings.HasPrefix(sf.dir, "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !checked || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				exports = append(exports, export{sf.f.Name.Name + "." + fd.Name.Name, sf.dir + "." + fd.Name.Name})
			} else {
				exports = append(exports, export{sf.f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name, fd.Name.Name})
			}
		}
		selected := map[*ast.Ident]bool{} // the Sel of every selector
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selected[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						used[dir+"."+x.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if declared[x] {
					break
				}
				used[x.Name] = true
				if !selected[x] {
					used[sf.dir+"."+x.Name] = true
				}
			}
			return true
		})
	}
	pending := maps.Clone(testOnlyExports)
	var unused []string
	for _, e := range exports {
		if _, keep := testOnlyExports[e.key]; keep {
			if used[e.use] {
				t.Errorf("%s is listed in testOnlyExports but non-test code uses it; drop the entry", e.key)
			}
			delete(pending, e.key)
			continue
		}
		if !used[e.use] {
			unused = append(unused, e.key)
		}
	}
	for key := range pending {
		t.Errorf("testOnlyExports lists %s, which is not declared in the root package or under internal/", key)
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but only tests use it: delete it, or unexport it and reach it from export_test.go", key)
	}
}

// testOnlyUnexported names the unexported functions and methods of the
// root package and under internal/ that only tests call but that stay on
// purpose, keyed like testOnlyExports, each with the reason it stays.
var testOnlyUnexported = map[string]string{
	"huffman.Coder.checkInvariants": "the invariant oracle the huffman tests and fuzz target check every update against",
}

// TestNoTestOnlyUnexported fails on any unexported function or method of
// the root package or under internal/ that no non-test file of its package
// uses, outside the testOnlyUnexported list: what only tests call belongs
// in a _test.go file (export_test.go when an external test package needs
// it). A function counts as used where its name appears as a bare
// identifier in a non-test file of its package outside its own
// declaration, so recursion does not keep it alive. A method counts as
// used wherever its name appears in such a file, as in
// TestNoTestOnlyExports, except inside the declaration of a method of the
// same name, so two same-named methods calling each other keep neither
// alive.
func TestNoTestOnlyUnexported(t *testing.T) {
	type fn struct {
		key string // "pkg.Func" or "pkg.Type.Method"
		use string // "dir.Func" for a function, "dir#method" for a method
	}
	var fns []fn
	used := map[string]bool{} // "dir.Func" of functions, "dir#method" of methods
	forEachNonTestFile(t, func(p string, f *ast.File) {
		dir := path.Dir(p)
		if dir != "." && !strings.HasPrefix(dir, "internal/") {
			return
		}
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			if fd != nil && !fd.Name.IsExported() && fd.Name.Name != "init" {
				if fd.Recv == nil {
					fns = append(fns, fn{f.Name.Name + "." + fd.Name.Name, dir + "." + fd.Name.Name})
				} else {
					fns = append(fns, fn{f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name, dir + "#" + fd.Name.Name})
				}
			}
			selected := map[*ast.Ident]bool{} // the Sel of every selector
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					selected[x.Sel] = true
				case *ast.Ident:
					// Skip the declared name, a function's call of
					// itself, and a method's own name anywhere in its
					// declaration: a method calling its namesake on a
					// field keeps neither alive.
					self := fd != nil && x.Name == fd.Name.Name
					if fd != nil && (x == fd.Name || self && fd.Recv == nil && !selected[x]) {
						break
					}
					if !selected[x] {
						used[dir+"."+x.Name] = true
					}
					if !self || fd.Recv == nil {
						used[dir+"#"+x.Name] = true
					}
				}
				return true
			})
		}
	})
	pending := maps.Clone(testOnlyUnexported)
	var unused []string
	for _, f := range fns {
		if _, keep := testOnlyUnexported[f.key]; keep {
			if used[f.use] {
				t.Errorf("%s is listed in testOnlyUnexported but non-test code uses it; drop the entry", f.key)
			}
			delete(pending, f.key)
			continue
		}
		if !used[f.use] {
			unused = append(unused, f.key)
		}
	}
	for key := range pending {
		t.Errorf("testOnlyUnexported lists %s, which is not declared in the root package or under internal/", key)
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is unexported and only tests call it: delete it, or move it into a _test.go file", key)
	}
}

// moduleDir returns the slash-separated directory, relative to the module
// root, of an import path inside module repro.
func moduleDir(importPath string) (string, bool) {
	if importPath == "repro" {
		return ".", true
	}
	rest, ok := strings.CutPrefix(importPath, "repro/")
	return rest, ok
}

// optionTypes are the option and parameter structs TestNoTestOnlyOptions
// checks, each with its package directory.
var optionTypes = []struct {
	dir string
	typ reflect.Type
}{
	{".", reflect.TypeFor[ServeOptions]()},
	{".", reflect.TypeFor[ClusterOptions]()},
	{"internal/sbd", reflect.TypeFor[sbd.Params]()},
	{"internal/assign", reflect.TypeFor[assign.Params]()},
	{"internal/btpc", reflect.TypeFor[btpc.Params]()},
	{"internal/core", reflect.TypeFor[core.EvalParams]()},
	{"internal/core", reflect.TypeFor[core.SpecKnobs]()},
	{"internal/core", reflect.TypeFor[core.DemoConfig]()},
	{"internal/cluster", reflect.TypeFor[cluster.Config]()},
}

// TestNoTestOnlyOptions fails on any exported field of an optionTypes
// struct that no non-test Go file of the tree sets; cmd/dtsebench counts.
// A knob only tests set is one no caller can turn. A field counts as set
// where a composite literal of its type, or of an alias of it such as
// dtse.CodecParams, names it, and where an assignment x.F = … names it in
// the type's own package or in a file that imports that package. The
// receiver of an assignment is not resolved, so any x counts, except in a
// normalize method, which only fills the defaults of fields nobody set.
// Literals of other types that pass a field on, such as a cluster.Config
// built from ClusterOptions, do not count.
func TestNoTestOnlyOptions(t *testing.T) {
	type fileInfo struct {
		dir     string
		f       *ast.File
		imports map[string]string // local name → directory, module imports only
	}
	var files []fileInfo
	forEachNonTestFile(t, func(p string, f *ast.File) {
		fi := fileInfo{dir: path.Dir(p), f: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := moduleDir(ip)
			if !ok {
				continue
			}
			name := path.Base(ip)
			if dir == "." {
				name = "dtse"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			fi.imports[name] = dir
		}
		files = append(files, fi)
	})
	// typeKey names the type an expression denotes in file fi, "" when it is
	// not a named type of the module.
	typeKey := func(fi fileInfo, e ast.Expr) string {
		switch x := e.(type) {
		case *ast.Ident:
			return fi.dir + "." + x.Name
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				if dir, ok := fi.imports[pkg.Name]; ok {
					return dir + "." + x.Sel.Name
				}
			}
		}
		return ""
	}
	aliases := map[string]string{} // alias → its target, both typeKeys
	for _, fi := range files {
		for _, d := range fi.f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					if ts := spec.(*ast.TypeSpec); ts.Assign.IsValid() {
						aliases[fi.dir+"."+ts.Name.Name] = typeKey(fi, ts.Type)
					}
				}
			}
		}
	}
	set := map[string]bool{}      // "typeKey.Field" named by a literal
	assigned := map[string]bool{} // "dir.Field" assigned in or beside package dir
	for _, fi := range files {
		dirs := []string{fi.dir}
		for _, dir := range fi.imports {
			dirs = append(dirs, dir)
		}
		for _, d := range fi.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "normalize" {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					typ := typeKey(fi, x.Type)
					if target, ok := aliases[typ]; ok {
						typ = target
					}
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[typ+"."+key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							for _, dir := range dirs {
								assigned[dir+"."+sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, o := range optionTypes {
		for i := 0; i < o.typ.NumField(); i++ {
			f := o.typ.Field(i)
			if f.IsExported() && !set[o.dir+"."+o.typ.Name()+"."+f.Name] && !assigned[o.dir+"."+f.Name] {
				t.Errorf("%s.%s is set only by tests: delete it, or give a real caller a use for it", o.typ, f.Name)
			}
		}
	}
}

// forEachNonTestFile parses every non-test Go file of the tree, hidden and
// testdata directories skipped, and calls fn with its slash-separated path.
func forEachNonTestFile(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvType returns the base type name of a method receiver.
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}
