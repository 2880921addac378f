// Package golden pins a test's rendered text against a committed
// transcript. Every test package that imports it gains the
// -update-golden flag of the root package's golden_test.go: under it the
// transcript is rewritten from the current output instead of compared,
// and the PR that does so quotes the resulting diff.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false,
	"rewrite golden transcripts from the current output")

// Transcript accumulates named entries: what was asked and what came
// back, one block per entry, so a behaviour change shows up as a diff of
// exactly the entries it moved.
type Transcript struct {
	b strings.Builder
}

// Add records one entry. A non-nil err is rendered after the output, as
// the shell would print it.
func (tr *Transcript) Add(name, input, output string, err error) {
	tr.b.WriteString("=== " + name + "\n$ " + input + "\n" + output)
	if output != "" && !strings.HasSuffix(output, "\n") {
		tr.b.WriteString("\n")
	}
	if err != nil {
		tr.b.WriteString("error: " + err.Error() + "\n")
	}
}

// Check compares the transcript with the file at path, or rewrites the
// file under -update-golden.
func (tr *Transcript) Check(t *testing.T, path string) {
	t.Helper()
	got := tr.b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if want := string(data); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		entry := ""
		for j := min(i, len(wl)-1); j >= 0; j-- {
			if strings.HasPrefix(wl[j], "=== ") {
				entry = wl[j]
				break
			}
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of transcript>"
		}
		t.Fatalf("%s differs from the output at line %d (%s):\n got  %q\n want %q\n(-update-golden rewrites it; a PR that does quotes the diff)",
			path, i+1, entry, line(gl), line(wl))
	}
}
