package videorec

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists holds README.md, the Makefile and the CI
// workflow to the tree: every make target, command directory, vrecd flag and
// root-level JSON file they name must exist. A JSON file one of them writes
// with -out is an output, not a reference. Back the other way, every fuzz
// target in the module must be on the Makefile's fuzz list, which CI runs.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	readme, makefile := read("README.md"), read("Makefile")
	docs := map[string]string{
		"README.md":                readme,
		"Makefile":                 makefile,
		".github/workflows/ci.yml": read(".github/workflows/ci.yml"),
	}

	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w.-]+):`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	for _, m := range regexp.MustCompile("(?m)(?:^|`)make ([\\w-]+)").FindAllStringSubmatch(readme, -1) {
		if !targets[m[1]] {
			t.Errorf("README.md: make %s is not a Makefile target", m[1])
		}
	}

	cmdRef := regexp.MustCompile(`\./cmd/(\w+)`)
	jsonRef := regexp.MustCompile("(?:^|[\\s`'\"(=])([\\w.-]+\\.json)\\b")
	outputs := map[string]bool{}
	for _, text := range docs {
		for _, m := range regexp.MustCompile(`-out ([\w.-]+\.json)`).FindAllStringSubmatch(text, -1) {
			outputs[m[1]] = true
		}
	}
	for name, text := range docs {
		for _, m := range cmdRef.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat("cmd/" + m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s: ./cmd/%s is not a directory", name, m[1])
			}
		}
		for _, m := range jsonRef.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(m[1]); err != nil && !outputs[m[1]] {
				t.Errorf("%s: %s does not exist", name, m[1])
			}
		}
	}

	fuzzDef := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// bench/ is its own module, out of reach of the root Makefile.
		if d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := "./" + strings.TrimPrefix(filepath.Dir(path)+"/", "./")
		for _, m := range fuzzDef.FindAllStringSubmatch(read(path), -1) {
			run := "-fuzz='^" + m[1] + "$$' -fuzztime=20s " + pkg
			if !strings.Contains(makefile, run) {
				t.Errorf("%s: %s is not on the Makefile's fuzz list (want %q)", path, m[1], run)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([\w-]+)"`).FindAllStringSubmatch(read("cmd/vrecd/main.go"), -1) {
		flags[m[1]] = true
	}
	flagRef := regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	lines := strings.Split(readme, "\n")
	for i := 0; i < len(lines); i++ {
		at := strings.Index(lines[i], "go run ./cmd/vrecd")
		if at < 0 {
			continue
		}
		cmd := lines[i][at:]
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i]
		}
		if j := strings.Index(cmd, "#"); j >= 0 {
			cmd = cmd[:j]
		}
		for _, m := range flagRef.FindAllStringSubmatch(cmd, -1) {
			if !flags[m[1]] {
				t.Errorf("README.md: vrecd has no flag -%s (in %q)", m[1], strings.TrimSpace(cmd))
			}
		}
	}
}
