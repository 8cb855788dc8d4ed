package engine

import (
	"fmt"

	"samrpart/internal/amr"
	"samrpart/internal/checkpoint"
	"samrpart/internal/geom"
)

// checkpointer is implemented by applications that carry restorable
// solution data (SimApp does; the structure-only oracle does not).
type checkpointer interface {
	// ExportPatches snapshots the solution patches by box.
	ExportPatches() map[geom.Box]*amr.Patch
	// ImportPatches replaces the solution storage (domain and ratio
	// rebuild the underlying HDDA index space).
	ImportPatches(patches map[geom.Box]*amr.Patch, domain geom.Box, refineRatio int)
}

// Checkpoint captures the engine's current state (hierarchy, patches if the
// application has them, and the virtual clock). Call it after Run, or
// between runs of a split experiment.
func (e *Engine) Checkpoint(iter int) (*checkpoint.State, error) {
	st := &checkpoint.State{
		Hierarchy:   e.hier,
		Iter:        iter,
		VirtualTime: e.clus.Now(),
	}
	if ck, ok := e.cfg.App.(checkpointer); ok {
		st.Patches = ck.ExportPatches()
		if len(st.Patches) == 0 {
			st.Patches = nil
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore primes a fresh engine from a checkpoint: the hierarchy replaces
// the engine's, and patch data is handed to the application when it
// implements Checkpointer. Call before Run. The checkpointed hierarchy must
// match the engine's configured domain and refinement settings.
func (e *Engine) Restore(st *checkpoint.State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	have := st.Hierarchy.Config()
	want := e.cfg.Hierarchy
	if !have.Domain.Equal(want.Domain) || have.RefineRatio != want.RefineRatio ||
		have.MaxLevels != want.MaxLevels {
		return fmt.Errorf("engine: checkpoint hierarchy config mismatch (have %+v domain %v)",
			have.RefineRatio, have.Domain)
	}
	e.hier = st.Hierarchy
	if ck, ok := e.cfg.App.(checkpointer); ok && st.Patches != nil {
		ck.ImportPatches(st.Patches, have.Domain, have.RefineRatio)
	}
	return nil
}
