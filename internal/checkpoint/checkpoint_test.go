package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

func buildState(t *testing.T) *State {
	t.Helper()
	h, err := amr.New(amr.Config{
		Domain:        geom.Box2(0, 0, 31, 31),
		RefineRatio:   2,
		MaxLevels:     2,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := amr.NewFlagField(h.LevelDomain(0))
	for x := 8; x <= 15; x++ {
		for y := 8; y <= 15; y++ {
			f.Set(geom.Pt2(x, y))
		}
	}
	if err := h.Regrid([]*amr.FlagField{f}); err != nil {
		t.Fatal(err)
	}
	patches := map[geom.Box]*amr.Patch{}
	for _, b := range h.AllBoxes() {
		p := amr.NewPatch(b, 1, 2)
		p.EachInterior(func(pt geom.Point) {
			p.Set(0, pt, float64(pt[0])+0.5*float64(pt[1]))
			p.Set(1, pt, math.Sin(float64(pt[0])))
		})
		patches[b] = p
	}
	return &State{Hierarchy: h, Patches: patches, Iter: 17, VirtualTime: 123.5}
}

func TestRoundTrip(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 17 || got.VirtualTime != 123.5 {
		t.Errorf("counters: %d, %g", got.Iter, got.VirtualTime)
	}
	if got.Hierarchy.NumLevels() != st.Hierarchy.NumLevels() {
		t.Fatal("level count changed")
	}
	wantBoxes := st.Hierarchy.AllBoxes()
	gotBoxes := got.Hierarchy.AllBoxes()
	if len(wantBoxes) != len(gotBoxes) {
		t.Fatal("box count changed")
	}
	// Every patch's data round-trips exactly.
	for b, wp := range st.Patches {
		gp, ok := got.Patches[b]
		if !ok {
			t.Fatalf("patch for %v lost", b)
		}
		mismatch := false
		wp.EachInterior(func(pt geom.Point) {
			for f := 0; f < wp.NumFields; f++ {
				if gp.At(f, pt) != wp.At(f, pt) {
					mismatch = true
				}
			}
		})
		if mismatch {
			t.Fatalf("patch data for %v corrupted", b)
		}
	}
	// The restored hierarchy still regrids (config survived).
	if err := got.Hierarchy.Regrid(nil); err != nil {
		t.Fatalf("restored hierarchy cannot regrid: %v", err)
	}
}

func TestStructureOnlyState(t *testing.T) {
	st := buildState(t)
	st.Patches = nil
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Patches != nil {
		t.Error("patches invented")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	st := buildState(t)
	// Remove one patch: save must fail.
	for b := range st.Patches {
		delete(st.Patches, b)
		break
	}
	var buf bytes.Buffer
	if err := Save(&buf, st); err == nil {
		t.Error("missing patch accepted")
	}
	// Nil hierarchy.
	if err := (&State{}).Validate(); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if err := (&State{Hierarchy: st.Hierarchy, Iter: -1}).Validate(); err == nil {
		t.Error("negative iter accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
	// Valid gob stream with the wrong header.
	var buf bytes.Buffer
	buf.WriteByte(0x07)
	if _, err := Load(&buf); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	st := buildState(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != st.Iter {
		t.Error("file round trip lost state")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestFailedRenameLeavesNoTempFile: the target is a non-empty directory, so
// the write succeeds and the rename cannot — through both entry points.
func TestFailedRenameLeavesNoTempFile(t *testing.T) {
	st := buildState(t)
	for name, write := range map[string]func(path string) error{
		"SaveFile":        func(path string) error { return SaveFile(path, st) },
		"WriteFileAtomic": func(path string) error { return WriteFileAtomic(path, []byte("shard")) },
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := write(path); err == nil {
			t.Errorf("%s: renaming over a non-empty directory succeeded", name)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%s: temp file left behind after a failed rename (stat: %v)", name, err)
		}
	}
}
