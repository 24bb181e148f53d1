package dtse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under internal/
// that no non-test code calls but that stay on purpose, keyed
// "pkg.Func" or "pkg.Type.Method", each with the reason it stays.
var testOnlyExports = map[string]string{
	"memlib.Tech.Scale":                   "backs the relative-comparisons-survive-rescaling test (DESIGN §2)",
	"img.Gradient":                        "synthetic image fixture for the btpc and core tests",
	"img.Noise":                           "synthetic image fixture for the btpc and core tests",
	"img.Flat":                            "synthetic image fixture for the btpc and core tests",
	"core.ExploreBudgetsPipelinedContext": "the only path to Table 3's off-chip jump (EXPERIMENTS.md Table 3)",
	"spec.Spec.GroupNames":                "spec fixture helper shared by several test packages",
	"reuse.Profile.Cold":                  "printed into internal/core's decoder.golden; export_test.go cannot reach across packages",
	"obs.Collector.Find":                  "span lookup fixture used by the root, core, sbd and obs tests",
	"inplace.PeakWords":                   "independent in-place word bound, kept for a certificate checker of assign",
	"inplace.SumWords":                    "independent in-place word bound, kept for a certificate checker of assign",
	"spec.Spec.MarshalJSON":               "called by encoding/json",
	"spec.Spec.UnmarshalJSON":             "called by encoding/json",
	"memo.Key.MarshalText":                "called by encoding/json (handoff record keys)",
	"memo.Key.UnmarshalText":              "called by encoding/json (handoff record keys)",
}

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ whose name no non-test Go file in the module uses, outside the
// testOnlyExports list. The check is by name, so a name used anywhere
// counts as used; it catches code only tests reach, not every dead method.
func TestNoTestOnlyExports(t *testing.T) {
	used := map[string]bool{}
	var decls []string // "pkg.Func" or "pkg.Type.Method"
	forEachNonTestFile(t, func(path string, f *ast.File) {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(path, "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, key)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	})
	pending := maps.Clone(testOnlyExports)
	var unused []string
	for _, key := range decls {
		name := key[strings.LastIndexByte(key, '.')+1:]
		if _, keep := testOnlyExports[key]; keep {
			if used[name] {
				t.Errorf("%s is listed in testOnlyExports but non-test code uses it; drop the entry", key)
			}
			delete(pending, key)
			continue
		}
		if !used[name] {
			unused = append(unused, key)
		}
	}
	for key := range pending {
		t.Errorf("testOnlyExports lists %s, which is not declared under internal/", key)
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but only tests use it: delete it, or unexport it and reach it from export_test.go", key)
	}
}

// TestNoTestOnlyOptions fails on any exported field of ServeOptions or
// ClusterOptions that no composite literal of that type in a non-test Go
// file of the tree sets; cmd/dtsebench counts. A knob only tests set is
// one no caller can turn. Literals of other types that pass a field on,
// such as a cluster.Config built from ClusterOptions, do not count.
func TestNoTestOnlyOptions(t *testing.T) {
	set := map[string]map[string]bool{}
	forEachNonTestFile(t, func(path string, f *ast.File) {
		root := !strings.Contains(path, "/")
		qualifier := "" // the root package's name in this file, when imported
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				qualifier = "dtse"
				if imp.Name != nil {
					qualifier = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			var typ string
			switch x := lit.Type.(type) {
			case *ast.Ident:
				if root {
					typ = x.Name
				}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && qualifier != "" && pkg.Name == qualifier {
					typ = x.Sel.Name
				}
			}
			if typ == "" {
				return true
			}
			if set[typ] == nil {
				set[typ] = map[string]bool{}
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[typ][key.Name] = true
					}
				}
			}
			return true
		})
	})
	for _, typ := range []reflect.Type{reflect.TypeFor[ServeOptions](), reflect.TypeFor[ClusterOptions]()} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !set[typ.Name()][f.Name] {
				t.Errorf("%s.%s is set only by tests: delete it, or give a real caller a use for it", typ.Name(), f.Name)
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
