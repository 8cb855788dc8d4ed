package exp

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"samrpart/internal/checkpoint"
	"samrpart/internal/engine"
	"samrpart/internal/runlog"
)

// elasticRow is one membership-policy scenario under the churn schedule.
type elasticRow struct {
	scenario string
	// endMembers is how many ranks finish the run as working members —
	// the structural availability the policy preserved (wall-clock is
	// meaningless for availability on one oversubscribed test machine).
	endMembers int
	// lostShare is the fraction of total work owned by nobody-that-
	// finished: the capacity fail-stop permanently forfeits.
	lostShare  float64
	recoveries int
	admissions int
	demotions  int
	promotions int
	bitExact   bool
}

// ElasticResult is the elastic-membership study: the same seeded churn
// schedule (crash + rejoin + slow window) run under increasingly capable
// policies, plus a checkpoint-corruption survival check.
type ElasticResult struct {
	rows []elasticRow
	// corruptionSurvived reports the restart survived a corrupted newest
	// checkpoint epoch by falling back; Fallbacks counts the epochs skipped.
	corruptionSurvived bool
	fallbacks          int
	cells              int
}

// Elastic runs the elastic-membership study over `iters` iterations of the
// 4-rank SPMD advection run. The churn schedule crashes rank 2 mid-run with
// a scheduled restart and dilates rank 1's compute by 6x for a window:
//
//   - "fail-stop" strips the rejoin, so the crash permanently costs a rank;
//   - "rejoin" re-admits the restarted rank at the next clean heartbeat;
//   - "rejoin+shed" additionally sheds the slowed rank's capacity while it
//     lags and promotes it back after the window closes.
//
// Every scenario must stay bit-exact with the fault-free reference —
// membership policy may move work, never change it.
func Elastic(iters int) (*ElasticResult, error) {
	if iters < 16 {
		iters = 16
	}
	res := &ElasticResult{}

	base := func(dir string) engine.SPMDConfig {
		cfg := ftAdvection(iters, dir)
		cfg.RecvDeadline = 2 * time.Second
		cfg.ControlDeadline = 300 * time.Millisecond
		cfg.FT.CheckpointKeep = 2
		return cfg
	}
	churn := engine.FaultSchedule{
		{Kind: engine.FaultCrash, Rank: 2, Iter: iters/2 + 2},
		{Kind: engine.FaultRejoin, Rank: 2, Iter: iters/2 + 4},
		{Kind: engine.FaultSlow, Rank: 1, Iter: 4, Until: iters / 2, Factor: 6},
	}

	refDir, err := os.MkdirTemp("", "samrpart-elastic-ref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ref, err := runGroup(4, base(refDir), true)
	if err != nil {
		return nil, err
	}
	want := composeField(ref)
	res.cells = len(want)

	scenarios := []struct {
		name   string
		faults engine.FaultSchedule
		shed   bool
	}{
		// Fail-stop keeps only the slow window from the churn script: its
		// crash has no rejoin, so the rank is gone for good.
		{"fail-stop", churn.WithoutRejoins(), false},
		{"rejoin", churn, false},
		{"rejoin+shed", churn, true},
	}
	var rejoinDir string
	for _, sc := range scenarios {
		dir, err := os.MkdirTemp("", "samrpart-elastic-"+sc.name)
		if err != nil {
			return nil, err
		}
		if sc.name == "rejoin" {
			rejoinDir = dir // reused below for the corruption restart
		} else {
			defer os.RemoveAll(dir)
		}
		cfg := base(dir)
		cfg.Faults = sc.faults
		cfg.Straggler = sc.shed
		results, err := runGroup(4, cfg, true)
		if err != nil {
			return nil, err
		}
		row := elasticRow{scenario: sc.name, bitExact: sameField(composeField(results), want)}
		for _, r := range results {
			if r.Crashed {
				continue
			}
			row.endMembers++
			if r.Recoveries > row.recoveries {
				row.recoveries = r.Recoveries
			}
			if r.Admissions > row.admissions {
				row.admissions = r.Admissions
			}
			if r.StragglerDemotions > row.demotions {
				row.demotions = r.StragglerDemotions
			}
			if r.StragglerPromotions > row.promotions {
				row.promotions = r.StragglerPromotions
			}
		}
		// The share a crashed rank held was redistributed to survivors, so
		// the structural loss is the member deficit, not dangling work.
		row.lostShare = 1 - float64(row.endMembers)/4
		res.rows = append(res.rows, row)
	}

	// Corruption survival: restart the rejoin scenario from its newest
	// checkpoint epoch after flipping a bit in every shard of that epoch.
	// The restart must detect the damage (CRC), fall back to the previous
	// intact epoch, and still reproduce the reference solution.
	defer os.RemoveAll(rejoinDir)
	newest := checkpoint.LatestShardIter(rejoinDir)
	if newest <= 0 {
		return nil, fmt.Errorf("exp: elastic rejoin run left no checkpoint shards")
	}
	for rank := 0; rank < 4; rank++ {
		p := checkpoint.ShardPath(rejoinDir, newest, rank)
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return nil, err
		}
	}
	if _, err := checkpoint.LoadShards(rejoinDir, newest); !errors.Is(err, checkpoint.ErrCorrupt) {
		return nil, fmt.Errorf("exp: corrupted shards loaded without ErrCorrupt (err=%v)", err)
	}
	resCfg := base(rejoinDir)
	resCfg.FT.ResumeFrom = newest
	resCfg.FT.CheckpointKeep = 0 // keep the corrupt epoch in place for the scan
	restarted, err := runGroup(4, resCfg, true)
	if err != nil {
		return nil, err
	}
	for _, r := range restarted {
		if r.CkptFallbacks > res.fallbacks {
			res.fallbacks = r.CkptFallbacks
		}
	}
	res.corruptionSurvived = res.fallbacks > 0 && sameField(composeField(restarted), want)
	return res, nil
}

// Render writes the elastic-membership table and the corruption outcome.
func (r *ElasticResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Elastic membership under seeded churn: fail-stop vs rejoin vs rejoin+shed",
		"Scenario", "End members", "Lost share", "Recoveries", "Admissions",
		"Demotions", "Promotions", "Bit-exact")
	for _, row := range r.rows {
		tab.AddF(row.scenario, row.endMembers, row.lostShare, row.recoveries,
			row.admissions, row.demotions, row.promotions, row.bitExact)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	status := "SURVIVED (fell back to previous intact epoch)"
	if !r.corruptionSurvived {
		status = "FAILED"
	}
	_, err := fmt.Fprintf(w,
		"Corrupted newest checkpoint epoch over %d cells: %s, %d epoch(s) skipped\n\n",
		r.cells, status, r.fallbacks)
	return err
}
