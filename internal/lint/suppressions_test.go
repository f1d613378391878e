package lint

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenSuppressions is the number of //lint:skylint-ignore directives in
// production and test code (fixtures and the lint packages themselves are
// excluded — fixtures carry directives as test inputs). The interprocedural
// summary layer brought this from 15 down to 13 by proving the two
// ctxcancel cases (buffered completion/replay sends sized by len(parts))
// safe without a directive; the LIMIT estimate clamp's nansafe directive
// went when the clamp became the builtin min. Adding a suppression is
// sometimes right — but it must move this number, so the reviewer sees it.
const goldenSuppressions = 12

// TestSuppressionCount walks the repository and pins the total count and
// the per-file distribution of skylint suppressions.
func TestSuppressionCount(t *testing.T) {
	root := filepath.Join("..", "..")
	perFile := map[string]int{}
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "bin" || name == ".git" {
				return filepath.SkipDir
			}
			if rel, _ := filepath.Rel(root, path); rel == filepath.Join("internal", "lint") && path != root {
				// Analyzer packages and docs mention the directive as prose.
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.Contains(path, "cmd/skylint") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "//lint:skylint-ignore") {
				rel, _ := filepath.Rel(root, path)
				perFile[filepath.ToSlash(rel)]++
				total++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != goldenSuppressions {
		var files []string
		for f, n := range perFile {
			files = append(files, fmt.Sprintf("%s: %d", f, n))
		}
		sort.Strings(files)
		t.Errorf("suppression count drifted: got %d, golden %d\n%s\nIf a new suppression is genuinely needed (with a reason), update goldenSuppressions; if one became unnecessary, delete it and lower the golden.",
			total, goldenSuppressions, strings.Join(files, "\n"))
	}
}
