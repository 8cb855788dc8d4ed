package exp

import (
	"strings"
	"testing"
)

// TestTraceOverheadShape runs the study at the minimum iteration count and
// checks its structural claims: all four apps present, every run bit-exact,
// the traced wire strictly larger (the piggybacked contexts), and a
// non-empty trace log per app.
func TestTraceOverheadShape(t *testing.T) {
	res, err := TraceOverhead(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.rows))
	}
	apps := map[string]bool{}
	for _, row := range res.rows {
		apps[row.app] = true
		if !row.bitExact {
			t.Errorf("%s: traced run not bit-exact with untraced", row.app)
		}
		if row.tracedWireBytes <= row.wireBytes {
			t.Errorf("%s: traced wire %d <= untraced %d", row.app, row.tracedWireBytes, row.wireBytes)
		}
		if row.logBytes <= 0 || row.records <= 0 {
			t.Errorf("%s: empty trace log (%d bytes, %d records)", row.app, row.logBytes, row.records)
		}
		if row.wirePct() <= 0 {
			t.Errorf("%s: wire overhead %.3f%% not positive", row.app, row.wirePct())
		}
	}
	for _, name := range []string{"advect2d", "muscl2d", "buckley", "euler3d"} {
		if !apps[name] {
			t.Errorf("missing app %s", name)
		}
	}

	var out strings.Builder
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Tracing overhead", "euler3d", "Bit-exact"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}
