package nocap_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the module line of go.mod.
const modulePath = "nocap"

// TestEveryInternalPackageHasAnImporter fails for any non-main package
// under internal/ that no Go file outside its own directory imports,
// test files included: a package nothing reaches is either connected to
// a caller or deleted. Test-only helpers pass because tests import them;
// generator mains are skipped because they are main.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	fset := token.NewFileSet()
	pkgName := map[string]string{}            // dir → package name of its non-test files
	importers := map[string]map[string]bool{} // import path → importing dirs
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if !strings.HasSuffix(p, "_test.go") {
			pkgName[dir] = f.Name.Name
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if importers[ip] == nil {
				importers[ip] = map[string]bool{}
			}
			importers[ip][dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var orphans []string
	for dir, name := range pkgName {
		if !strings.HasPrefix(dir, "internal/") || name == "main" {
			continue
		}
		imported := false
		for from := range importers[path.Join(modulePath, dir)] {
			if from != dir {
				imported = true
				break
			}
		}
		if !imported {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s: no file outside the package imports it; connect it to a caller or delete it", dir)
	}
}
