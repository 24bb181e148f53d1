package dtse

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsNameTests fails when a `go test -run` selector in the CI
// workflow names a test that no longer exists, since such a step would
// select nothing and pass: every name in an anchored `'^(A|B)$'` or
// `'^P(A|B)$'` pattern must be a test function of each listed package, and
// every name in an unanchored one the prefix of one.
func TestCISelectorsNameTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked, problems := checkRunSelectors(string(yml), testFuncs)
	for _, p := range problems {
		t.Error(p)
	}
	if checked == 0 {
		t.Fatal("no -run selector found in ci.yml")
	}
	t.Logf("%d selector names checked", checked)
}

// TestCheckRunSelectorsReportsMissing: the check reports a renamed test, a
// prefix that matches nothing, an unsupported pattern and an unquoted one,
// and accepts exact names, prefixes, a common stem and `.*` suffixes.
func TestCheckRunSelectorsReportsMissing(t *testing.T) {
	tests := func(dir string) (map[string]bool, error) {
		return map[string]bool{"TestAlpha": true, "TestAlphaBeta": true, "TestGamma": true}, nil
	}
	yml := `
        run: go test -race -run '^(TestAlpha|TestGamma)$' ./a ./b
        run: |
          go test -count=3 -run='^(TestAlph|TestGam.*)' .
          go test -run \
            '^TestGone$' ./c
          go test -run='^TestDelta' ./d
          go test -run '^Test[AB]$' ./e
          go test -run '^TestA(lpha|lphaBeta)$' ./g
          go test -run TestAlpha ./h
          go test -run='^$' -bench=. ./f
`
	checked, problems := checkRunSelectors(yml, tests)
	if checked != 10 {
		t.Errorf("checked %d names, want 10", checked)
	}
	want := []string{"TestGone", "TestDelta", "Test[AB]", "-run TestAlpha"}
	if len(problems) != len(want) {
		t.Fatalf("problems %q, want one each for %q", problems, want)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to name %s", i, problems[i], w)
		}
	}
}

// TestTestFuncsPattern: a "dir/..." argument yields the tests every
// package below dir declares, so a name only some of them have is reported.
func TestTestFuncsPattern(t *testing.T) {
	funcs, err := testFuncs("./examples/...")
	if err != nil {
		t.Fatal(err)
	}
	if !funcs["TestStdoutGolden"] {
		t.Errorf("./examples/... tests %v lack TestStdoutGolden", funcs)
	}
	if funcs, err := testFuncs("./cmd/..."); err != nil || funcs["TestRunDigests"] {
		t.Errorf("./cmd/... yields %v (err %v); TestRunDigests is only cmd/dtse's", funcs, err)
	}
	if _, err := testFuncs("./testdata/..."); err == nil {
		t.Error("a pattern without test files was accepted")
	}
}

var (
	// runSelector matches a `go test` command line with a -run pattern and
	// captures the pattern and the arguments after it.
	runSelector = regexp.MustCompile(`go test .*?-run[ =]\s*'([^']*)'(.*)`)
	// selectorName is a test name, possibly ending in the prefix wildcard.
	selectorName = regexp.MustCompile(`^Test\w*(\.\*)?$`)
	testFunc     = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
)

// checkRunSelectors checks every -run selector in yml against the test
// functions that tests lists for each package directory. It returns the
// number of names checked and one line per problem.
func checkRunSelectors(yml string, tests func(dir string) (map[string]bool, error)) (int, []string) {
	yml = regexp.MustCompile(`\\\n\s*`).ReplaceAllString(yml, " ") // join continued lines
	checked := 0
	var problems []string
	for _, line := range strings.Split(yml, "\n") {
		if !strings.Contains(line, "go test ") || !strings.Contains(line, "-run") {
			continue
		}
		m := runSelector.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("cannot read the -run selector of %q (want it single-quoted)", strings.TrimSpace(line)))
			continue
		}
		pattern := m[1]
		body := strings.TrimPrefix(pattern, "^")
		anchored := strings.HasSuffix(body, "$")
		body = strings.TrimSuffix(body, "$")
		if body == "" {
			continue // -run '^$': benchmarks or fuzzing only
		}
		// A common prefix before the group applies to every alternative.
		stem, alts, grouped := strings.Cut(strings.TrimSuffix(body, ")"), "(")
		if !grouped {
			stem, alts = "", body
		}
		var dirs []string
		for _, arg := range strings.Fields(m[2]) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				dirs = append(dirs, arg)
			}
		}
		if len(dirs) == 0 {
			problems = append(problems, fmt.Sprintf("selector %q: no package path", pattern))
		}
		for _, alt := range strings.Split(alts, "|") {
			name := stem + alt
			if !strings.HasPrefix(pattern, "^") || !selectorName.MatchString(name) {
				problems = append(problems, fmt.Sprintf("selector %q: cannot check %q (want ^Name, ^(A|B) or ^P(A|B), optionally $-anchored)", pattern, name))
				continue
			}
			prefix := strings.HasSuffix(name, ".*") || !anchored
			name = strings.TrimSuffix(name, ".*")
			for _, dir := range dirs {
				checked++
				funcs, err := tests(dir)
				if err != nil {
					problems = append(problems, fmt.Sprintf("selector %q: %v", pattern, err))
					continue
				}
				if !hasTest(funcs, name, prefix) {
					problems = append(problems, fmt.Sprintf("selector %q: %s names no test in %s", pattern, name, dir))
				}
			}
		}
	}
	return checked, problems
}

func hasTest(funcs map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// testFuncs returns the names of the test functions in dir's _test.go
// files. For a "dir/..." pattern it returns the names that every package
// with test files below dir declares, so a selector over the pattern must
// name a test of each.
func testFuncs(dir string) (map[string]bool, error) {
	if root, ok := strings.CutSuffix(dir, "/..."); ok {
		var common map[string]bool
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			funcs, err := testFuncs(p)
			if err != nil {
				return nil // no test files here
			}
			if common == nil {
				common = funcs
			}
			for name := range common {
				if !funcs[name] {
					delete(common, name)
				}
			}
			return nil
		})
		if err == nil && common == nil {
			err = fmt.Errorf("no test files under %s", root)
		}
		return common, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no test files in %s", dir)
	}
	funcs := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
	}
	return funcs, nil
}
