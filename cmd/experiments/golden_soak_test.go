//go:build soak && !race

package main

import "testing"

// TestAllPaperTablesGolden regenerates every section of
// experiments_output.txt and compares each byte for byte (about six minutes
// on two cores; left out of race builds, which would take hours).
func TestAllPaperTablesGolden(t *testing.T) {
	golden, n := checkGolden(t, "-fig7", "-fig8", "-fig11", "-table2", "-table3",
		"-ablations", "-fault", "-sensorfault", "-movement", "-scaling")
	if n != len(golden) {
		t.Errorf("compared %d sections, want all %d of the file", n, len(golden))
	}
}
