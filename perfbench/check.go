package main

import (
	"fmt"

	"saspar/internal/core"
	"saspar/internal/vtime"
)

// The in-process workloads' outputs are checked by side runs after
// the measurement: the same workload and seed, once with SASPAR on and
// once with it off (the vanilla SPE), fed for a fixed horizon below
// saturation, so both runs admit the same rows, and then drained.
// Shared partitioning and live migration may change where and when a
// row is processed, never what the queries compute, so the two runs
// must agree on every query's processed total and, with exact windows,
// on the number of join matches.

// checkSpec shapes one workload's side run.
type checkSpec struct {
	// exact runs the side run with exact windows (concrete sums and
	// join buffers); without it the engine keeps weighted counters
	// and only processed totals are compared.
	exact  bool
	weight float64        // modelled weight of one concrete row
	feed   vtime.Duration // how long the sources feed before the drain
}

// checkScale is the share of a workload's rates the side runs feed:
// below saturation with SASPAR off on both in-process workloads.
const checkScale = 0.25

// sideOut is what one side run computed.
type sideOut struct {
	exact     bool
	generated int64
	applied   int64 // plans SASPAR applied (0 with SASPAR off)
	processed []float64
	emitted   float64 // join matches
}

// runSide runs spec's workload for seed as its checkSpec says, then
// drains it until every window fed has closed.
func runSide(spec inprocSpec, seed int64, saspar bool) (*sideOut, error) {
	w, ec, cc, err := spec.build(seed)
	if err != nil {
		return nil, err
	}
	cs := spec.check
	ec.ExactWindows = cs.exact
	ec.TupleWeight = cs.weight
	cc.Enabled = saspar
	sys, err := core.New(ec, w.Streams, w.Queries, cc)
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	eng.Metrics().StartMeasurement(0)
	w.ApplyRates(eng, checkScale)
	if err := sys.Run(cs.feed); err != nil {
		return nil, fmt.Errorf("check run: %w", err)
	}
	var widest vtime.Duration
	for _, q := range w.Queries {
		widest = max(widest, q.Window.Range)
	}
	w.ApplyRates(eng, 0)
	if err := sys.Run(widest + 2*vtime.Second); err != nil {
		return nil, fmt.Errorf("check drain: %w", err)
	}
	eng.Metrics().StopMeasurement(eng.Clock())
	m := eng.Metrics()
	out := &sideOut{exact: cs.exact, generated: eng.GeneratedTuples(), applied: int64(sys.Snapshot().Applied),
		emitted: m.EmittedTotal()}
	secs := m.MeasuredSeconds()
	for q := 0; q < eng.NumQueries(); q++ {
		out.processed = append(out.processed, m.QueryThroughput(q)*secs)
	}
	return out, nil
}

// checkSide compares the SASPAR-on side run with the SASPAR-off one.
func checkSide(o *outcome, on, off *sideOut) {
	o.check("off-inputs-equal", on.generated == off.generated && on.generated > 0,
		"rows generated: saspar on %d, off %d", on.generated, off.generated)
	o.check("off-replanned", on.applied > 0, "saspar on applied %d plans", on.applied)
	same := len(on.processed) == len(off.processed)
	var total float64
	var idle []int // queries that processed nothing, on and off alike
	for q := 0; same && q < len(on.processed); q++ {
		same = on.processed[q] == off.processed[q]
		total += on.processed[q]
		if on.processed[q] == 0 {
			idle = append(idle, q)
		}
	}
	o.check("off-processed-equal", same && total > 0, "per-query processed totals: saspar on %v, off %v; queries that processed nothing: %v",
		on.processed, off.processed, idle)
	if !on.exact {
		return
	}
	o.check("off-emitted-equal", on.emitted == off.emitted && on.emitted > 0,
		"emitted: saspar on %.0f, off %.0f", on.emitted, off.emitted)
}
