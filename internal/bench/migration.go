package bench

import (
	"fmt"
	"io"

	"saspar/internal/checkpoint"
	"saspar/internal/core"
	"saspar/internal/obs"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// The migration experiment: checkpoint-staged live migration versus
// classic pause-and-transfer on a drifting AJoin workload, across
// drift intensities. Both arms see the same drift schedule, trigger
// cadence and checkpoint chain; they differ only in the transfer
// schedule — staged pre-ships the chain's copy of each moving cell
// while the source keeps processing and sends only the since-barrier
// residual at the alignment point, pause ships everything at the
// alignment point. The claims under test: staged cuts the mean
// injection→alignment pause and the at-alignment reshuffle bytes, and
// the advantage grows with drift intensity (faster drift → more
// reconfigurations → more state on the move).

// MigrationRow is one (mode, drift period) cell.
type MigrationRow struct {
	Mode    string  // "staged" or "pause"
	DriftTU float64 // hot-set rotation period in TimeUnits (shorter = more intense)

	Applied   int // reconfigurations completed end-to-end
	Staged    int // of those, checkpoint-staged (0 in pause mode)
	Fallbacks int // staged attempts forced back to pause-and-transfer

	// MeanPauseMs is the average marker-injection → alignment-complete
	// span per reconfiguration — the window processing stalls on the
	// moving cells. AlignMB is everything shipped at alignment points
	// (the reshuffle bill); StagedMB arrived ahead of the barrier and
	// ResidualMB is the since-barrier remainder staged mode still owes
	// at alignment.
	MeanPauseMs float64
	AlignMB     float64
	StagedMB    float64
	ResidualMB  float64
}

// MigrationDrifts is the drift-period axis in TimeUnits, most intense
// first.
func MigrationDrifts() []float64 { return []float64{1, 2, 4} }

// Migration runs both modes over the drift axis, fanned over the
// run-matrix pool. Cells measure virtual-time metrics only, so the
// solver runs under the deterministic budget and output is
// byte-identical at any worker count.
func Migration(sc Scale) ([]MigrationRow, error) {
	sc.DeterministicOpt = true
	modes := []string{core.MigrationStaged, core.MigrationPause}
	drifts := MigrationDrifts()
	cells := len(modes) * len(drifts)
	return parallel.Map(sc.pool(), cells, func(i int) (MigrationRow, error) {
		mode := modes[i/len(drifts)]
		drift := drifts[i%len(drifts)]
		row, err := migrationCell(sc, mode, drift)
		if err != nil {
			return MigrationRow{}, fmt.Errorf("bench: migration %s drift=%gTU: %w", mode, drift, err)
		}
		return row, nil
	})
}

func migrationCell(sc Scale, mode string, driftTU float64) (MigrationRow, error) {
	row := MigrationRow{Mode: mode, DriftTU: driftTU}
	w, err := ajoinWorkload(sc, 4, vtime.Duration(driftTU*float64(sc.TimeUnit)))
	if err != nil {
		return row, err
	}

	engCfg := sc.engineConfig()
	engCfg.ExactWindows = false

	coreCfg := sc.coreConfig()
	coreCfg.Obs = obs.New()
	// A trigger per TimeUnit with a permissive acceptance gate: every
	// optimizer round that sees the rotated hot set becomes a live
	// migration in the mode under test.
	coreCfg.TriggerInterval = sc.TimeUnit
	coreCfg.MinImprovement = 0.001
	coreCfg.PlanHorizon = 100
	// The chain refreshes twice per trigger interval so the staged arm
	// always has a recent barrier to pre-ship from.
	coreCfg.Checkpoint = checkpoint.Config{
		Interval:    sc.TimeUnit / 2,
		Incremental: true,
	}
	coreCfg.MigrationMode = mode

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		return row, err
	}
	w.ApplyRates(sys.Engine(), 1)
	if err := sys.Run(sc.Warmup + sc.Measure); err != nil {
		return row, err
	}

	snap := sys.Snapshot()
	if snap.Applied == 0 {
		return row, fmt.Errorf("no reconfiguration applied; the cell is vacuous")
	}
	if mode == core.MigrationStaged && snap.MigrationsStaged == 0 {
		return row, fmt.Errorf("staged arm never staged (applied=%d fallbacks=%d)",
			snap.Applied, snap.MigrationFallbacks)
	}
	row.Applied = snap.Applied
	row.Staged = snap.MigrationsStaged
	row.Fallbacks = snap.MigrationFallbacks
	row.MeanPauseMs = snap.MigrationPauseSec / float64(snap.Applied) * 1e3
	row.AlignMB = snap.AlignmentBytes / 1e6
	row.StagedMB = snap.StagedBytes / 1e6
	row.ResidualMB = snap.ResidualBytes / 1e6
	return row, nil
}

// MigrationPauseSeconds is the benchjson entry point: the staged arm's
// mean reconfiguration pause at the middle drift intensity, in virtual
// seconds. Deterministic, so it tracks protocol and scenario changes
// rather than host noise.
func MigrationPauseSeconds(sc Scale) (float64, error) {
	sc.DeterministicOpt = true
	row, err := migrationCell(sc, core.MigrationStaged, MigrationDrifts()[1])
	if err != nil {
		return 0, err
	}
	return row.MeanPauseMs / 1e3, nil
}

// PrintMigration renders the migration table, pairing both modes per
// drift intensity so the staged-versus-pause delta reads row by row.
func PrintMigration(w io.Writer, rows []MigrationRow) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s\t%gTU\t%d\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.2f",
			r.Mode, r.DriftTU, r.Applied, r.Staged, r.Fallbacks,
			r.MeanPauseMs, r.AlignMB, r.StagedMB, r.ResidualMB))
	}
	table(w, "mode\tdrift\tapplied\tstaged\tfallbacks\tmean pause (ms)\talign (MB)\tstaged (MB)\tresidual (MB)", out)
}
