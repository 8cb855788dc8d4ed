// Package checkpoint saves and restores the state of an adaptive run — the
// grid hierarchy, the solution patches, and the progress counters — as a
// single gob stream. Long SAMR runs on clusters of workstations checkpoint
// routinely (nodes come and go); GrACE provided the same facility.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// stateVersion is the envelope format version of full-run checkpoint files.
// v2 added the CRC-32C integrity envelope (see integrity.go); v1 files —
// bare gob streams — are rejected as corrupt.
const stateVersion = 2

// State is everything needed to resume a run.
type State struct {
	// Hierarchy is the adaptive grid hierarchy.
	Hierarchy *amr.Hierarchy
	// Patches maps hierarchy boxes to solution patches (nil for
	// structure-only applications).
	Patches map[geom.Box]*amr.Patch
	// Iter is the next coarse iteration to execute.
	Iter int
	// VirtualTime is the cluster clock at the checkpoint.
	VirtualTime float64
}

// Validate checks internal consistency: every hierarchy box has a patch
// when patches are present, and no orphan patches exist.
func (st *State) Validate() error {
	if st.Hierarchy == nil {
		return fmt.Errorf("checkpoint: nil hierarchy")
	}
	if st.Iter < 0 {
		return fmt.Errorf("checkpoint: negative iteration %d", st.Iter)
	}
	if st.Patches == nil {
		return nil
	}
	boxes := st.Hierarchy.AllBoxes()
	for _, b := range boxes {
		if _, ok := st.Patches[b]; !ok {
			return fmt.Errorf("checkpoint: hierarchy box %v has no patch", b)
		}
	}
	if len(st.Patches) != len(boxes) {
		return fmt.Errorf("checkpoint: %d patches for %d hierarchy boxes",
			len(st.Patches), len(boxes))
	}
	return nil
}

// Save writes the state to w inside the versioned CRC-32C envelope, so Load
// can prove the bytes intact before decoding them.
func Save(w io.Writer, st *State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("checkpoint: write state: %w", err)
	}
	if _, err := w.Write(sealEnvelope(stateVersion, buf.Bytes())); err != nil {
		return fmt.Errorf("checkpoint: write state: %w", err)
	}
	return nil
}

// Load reads a state written by Save. A truncated, bit-flipped, or
// version-skewed stream fails with an error wrapping ErrCorrupt.
func Load(r io.Reader) (*State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read state: %w", err)
	}
	payload, err := openEnvelope(data, stateVersion)
	if err != nil {
		return nil, err
	}
	st := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// SaveFile writes the state to path (atomically, see WriteFileAtomic).
func SaveFile(path string, st *State) error {
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// WriteFileAtomic writes pre-encoded bytes to path via a temp file + rename,
// so readers never observe a partially written checkpoint; a failed write or
// rename leaves no temp file behind. Callers that need a consistent cut of
// live state should Save into a buffer first and hand the bytes here
// (possibly from another goroutine).
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadFile reads a state from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
