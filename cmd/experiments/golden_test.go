package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenPath is the committed rendering of the paper's tables.
const goldenPath = "../../experiments_output.txt"

// splitSections cuts experiments output on its "==== <name> ====" header
// lines: each name maps to every byte after its header up to the next one.
func splitSections(t *testing.T, out string) map[string]string {
	t.Helper()
	secs := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if h := strings.TrimSuffix(line, "\n"); strings.HasPrefix(h, "==== ") && strings.HasSuffix(h, " ====") {
			name = strings.TrimSuffix(strings.TrimPrefix(h, "==== "), " ====")
			if _, dup := secs[name]; dup {
				t.Fatalf("section %q appears twice", name)
			}
			secs[name] = ""
			continue
		}
		if name == "" && line != "" {
			t.Fatalf("output before the first section header: %q", line)
		}
		secs[name] += line
	}
	return secs
}

// checkGolden runs the command with args and compares every section it
// renders byte for byte with the same section of experiments_output.txt. It
// returns the golden file's sections and the number it compared.
func checkGolden(t *testing.T, args ...string) (golden map[string]string, checked int) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("experiments_output.txt was generated on amd64; on %s the float bits may differ until they stop depending on the CPU (ROADMAP item 19)", runtime.GOARCH)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden = splitSections(t, string(data))
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for name, got := range splitSections(t, out.String()) {
		want, ok := golden[name]
		if !ok {
			t.Errorf("section %q is not in %s", name, goldenPath)
			continue
		}
		checked++
		if got != want {
			t.Errorf("section %q differs from %s:\n%s", name, goldenPath, firstDiff(got, want))
		}
	}
	return golden, checked
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return ""
}

// TestPaperTablesGolden pins the studies that finish in seconds to the
// committed tables: a change that moves one of their numbers fails here and
// must regenerate experiments_output.txt, explaining each table that moved.
// The slow studies are pinned by the soak-tagged TestAllPaperTablesGolden.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates five studies (a few seconds); skipped under -short")
	}
	if _, n := checkGolden(t, "-fig8", "-fig11", "-fault", "-sensorfault", "-movement"); n != 5 {
		t.Errorf("compared %d sections, want 5", n)
	}
}
