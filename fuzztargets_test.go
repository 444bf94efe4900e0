package gpushare_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fuzzFunc matches a fuzz target's declaration in a test file.
var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// fuzzRun matches one `go test -fuzz=Target ... ./pkg` command line.
var fuzzRun = regexp.MustCompile(`(?m)-fuzz=(\w+)\s.*\s(\./\S+)\s*$`)

// TestFuzzTargetsListed pins the two hand-kept fuzz lists to the code:
// every fuzz target in the module (the bench/ module and analyzer
// testdata aside) runs, under its package path, in both the Makefile's
// fuzz target and CI's fuzz-smoke job, and neither list names a target
// that is gone.
func TestFuzzTargetsListed(t *testing.T) {
	var targets []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (path == "bench" || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets = append(targets, string(m[1])+" ./"+filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}

	for _, list := range []struct{ name, text string }{
		{"Makefile fuzz target", block(t, "Makefile", "fuzz:", "")},
		{"ci.yml fuzz-smoke job", block(t, ".github/workflows/ci.yml", "fuzz-smoke:", "  ")},
	} {
		var listed []string
		for _, m := range fuzzRun.FindAllStringSubmatch(list.text, -1) {
			listed = append(listed, m[1]+" "+m[2])
		}
		for _, want := range targets {
			if !slices.Contains(listed, want) {
				t.Errorf("%s does not run %s", list.name, want)
			}
		}
		for _, got := range listed {
			if !slices.Contains(targets, got) {
				t.Errorf("%s runs %s, which is no fuzz target", list.name, got)
			}
		}
	}
}

// block returns the lines of the file at path from the one reading
// indent+header to the next line at that indent or shallower.
func block(t *testing.T, path, header, indent string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := "\n" + string(src)
	start := strings.Index(text, "\n"+indent+header)
	if start < 0 {
		t.Fatalf("%s has no %q", path, header)
	}
	text = text[start+1:]
	if end := regexp.MustCompile(fmt.Sprintf(`\n {0,%d}\S`, len(indent))).FindStringIndex(text[1:]); end != nil {
		text = text[:1+end[0]]
	}
	return text
}
