package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"saspar/internal/ajoinwl"
	"saspar/internal/checkpoint"
	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/tpch"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// timeUnit is what the paper's "1 minute" maps to at quick scale;
// windows, trigger intervals and drift periods derive from it.
const timeUnit = 2 * vtime.Second

// setupReps is how many systems a run builds, primes and measures, one
// after another. Each runs the same ticks of the same seed, a
// setupReps-th share of the horizon; setup_s is the median set-up.
const setupReps = 3

// latencyWindow is the stretch of wall time whose ticks give one
// median to the in-process latency figure.
const latencyWindow = time.Second

// layerBoundPct bounds how far the traced layers may fail to account
// for the measured totals: children may over-cover their tick, and
// the loop outside the ticks may take, at most this share.
const layerBoundPct = 5.0

// inprocSpec is one closed-loop, in-process workload.
type inprocSpec struct {
	name     string
	fillName string // per-layer metric of this workload's source fill
	build    func(seed int64) (*workload.Workload, engine.Config, core.Config, error)
	warmup   vtime.Duration
	// vsPerSec maps --seconds to a fixed virtual horizon: the virtual
	// seconds one wall second covered on the reference host (2-core
	// x86-64). A fixed horizon keeps every count of a seed identical
	// across runs; a faster program then simply finishes sooner.
	vsPerSec float64
	// minVS is the horizon below which the workload's control loop may
	// legitimately not have acted yet (short smoke runs).
	minVS float64
	// acted checks that the control loop did the work the workload is
	// in the benchmark for.
	acted func(o *outcome, d core.Report)
	// check shapes the side run that checks the outputs (check.go).
	check checkSpec
}

// quickEngine is the quick-scale cluster: 4 nodes, 8 partitions, 32
// key groups, 4 source tasks per stream.
func quickEngine(seed int64, weight float64) engine.Config {
	ec := engine.DefaultConfig()
	ec.Nodes, ec.NumPartitions, ec.NumGroups, ec.SourceTasks = 4, 8, 32, 4
	ec.TupleWeight = weight
	ec.Seed = seed
	return ec
}

// deterministicCore is the SASPAR layer with node-capped solves, so the
// plan sequence of a seed repeats exactly on any host.
func deterministicCore() core.Config {
	cc := core.DefaultConfig()
	cc.TriggerInterval = 4 * timeUnit
	cc.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 50000}
	return cc
}

var sharedTPCH = inprocSpec{
	name:     "shared-tpch",
	fillName: "tpch.fill_ns_per_row",
	build: func(seed int64) (*workload.Workload, engine.Config, core.Config, error) {
		w, err := tpch.New(tpch.DefaultConfig())
		return w, quickEngine(seed, 20), deterministicCore(), err
	},
	warmup:   10 * vtime.Second,
	vsPerSec: 10,
	minVS:    2 * 4 * timeUnit.Seconds(),
	acted: func(o *outcome, d core.Report) {
		o.check("optimizer-ran", d.Triggers > 0, "%d triggers in the measured horizon", d.Triggers)
	},
	// Exact windows are off here: the engine panics replaying the rows
	// it held for a migrating join whose inputs have different column
	// counts (engine.(*Engine).mergeState, index out of range in
	// TupleBlock.RowTuple).
	check: checkSpec{weight: 200, feed: 20 * vtime.Second},
}

var driftAJoin = inprocSpec{
	name:     "drift-ajoin",
	fillName: "ajoinwl.fill_ns_per_row",
	build: func(seed int64) (*workload.Workload, engine.Config, core.Config, error) {
		cfg := ajoinwl.DefaultConfig()
		cfg.NumQueries = 4
		cfg.Window = engine.WindowSpec{Range: 2 * timeUnit, Slide: 2 * timeUnit}
		cfg.RatePerStream = 10e6
		cfg.DriftPeriod = 2 * timeUnit
		cfg.Seed = seed
		w, err := ajoinwl.New(cfg)
		if err != nil {
			return nil, engine.Config{}, core.Config{}, err
		}
		// ajoinwl's seed also picks which joins key on items instead of
		// users, and set-up time differed by a third between mixes. The
		// run's seed drives the rows; the queries are the default
		// seed's mix, one item-keyed join of four, on every run.
		mix := cfg
		mix.Seed = ajoinwl.DefaultConfig().Seed
		m, err := ajoinwl.New(mix)
		if err != nil {
			return nil, engine.Config{}, core.Config{}, err
		}
		w.Queries = m.Queries

		// The staged-migration cell shape: a trigger per TimeUnit with
		// a permissive acceptance gate, so rounds that see the rotated
		// hot set become live migrations, and a checkpoint chain
		// refreshed twice per trigger interval to stage them from.
		cc := deterministicCore()
		cc.Obs = obs.New()
		cc.TriggerInterval = timeUnit
		cc.MinImprovement = 0.001
		cc.PlanHorizon = 100
		cc.Checkpoint = checkpoint.Config{Interval: timeUnit / 2, Incremental: true}
		cc.MigrationMode = core.MigrationStaged
		return w, quickEngine(seed, 500), cc, err
	},
	warmup:   10 * vtime.Second,
	vsPerSec: 20,
	minVS:    4 * timeUnit.Seconds(),
	acted: func(o *outcome, d core.Report) {
		o.check("migrations-ran", d.Applied > 0 && d.MigrationsStaged > 0 && d.Checkpoints > 0,
			"%d applied, %d staged, %d checkpoints in the measured horizon", d.Applied, d.MigrationsStaged, d.Checkpoints)
	},
	check: checkSpec{exact: true, weight: 5000, feed: 8 * vtime.Second},
}

func runSharedTPCH(rc runConfig) (*outcome, error) { return runInproc(sharedTPCH, rc) }
func runDriftAJoin(rc runConfig) (*outcome, error) { return runInproc(driftAJoin, rc) }

// probes are the wrappers a traced run installs around the interfaces
// the program accepts.
type probes struct {
	fill, sample layerClock
	store        *timedStore
}

// setupInproc builds and primes one system.
func setupInproc(spec inprocSpec, seed int64, traced bool) (*core.System, *probes, error) {
	w, ec, cc, err := spec.build(seed)
	if err != nil {
		return nil, nil, err
	}
	streams := w.Streams
	var p *probes
	if traced {
		p = &probes{}
		streams = timeSources(streams, &p.fill)
		if cc.Checkpoint.Interval > 0 {
			p.store = &timedStore{inner: checkpoint.NewMemStore()}
			cc.Checkpoint.Store = p.store
		}
	}
	sys, err := core.New(ec, streams, w.Queries, cc)
	if err != nil {
		return nil, nil, err
	}
	if traced && sys.Collector() != nil {
		sys.Engine().SetSampler(timedSampler{sys.Collector(), &p.sample}, cc.SampleEvery)
	}
	w.ApplyRates(sys.Engine(), 1)
	if err := sys.Run(spec.warmup); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, p, nil
}

// repOut is what the measured ticks of one built system recorded.
type repOut struct {
	// Per tick: wall time, CPU time of the thread that ran the tick,
	// CPU time of the whole process.
	tickMs, threadMs, cpuMs                []float64
	selfMs, alignMs, solveMs               []float64
	fillRows, sampleCalls, rows, stalls    int64
	fillT, sampleT, solveT, overT, tickSum time.Duration
	wall                                   time.Duration
	netBytes, processed, lostBytes         float64
	d                                      core.Report
	puts                                   []time.Duration
	digest                                 string
}

// measureRep runs ticks measured ticks of one primed system.
func measureRep(spec inprocSpec, rc runConfig, rep int, sys *core.System, p *probes, ticks int, heap *heapProbe) (*repOut, error) {
	eng, ctl := sys.Engine(), sys.Controller()
	tick := eng.Config().Tick
	if p != nil {
		p.fill.take()
		p.sample.take()
		if p.store != nil {
			p.store.take()
			p.store.puts = nil
		}
	}
	before := sys.Snapshot()
	rows0, stalls0, nOpt := eng.GeneratedTuples(), eng.StallTicks(), len(sys.Optimizations())
	eng.Metrics().StartMeasurement(eng.Clock())
	runtime.GC()

	r := &repOut{tickMs: make([]float64, 0, ticks)}
	// The ticks run on this goroutine; holding it on one OS thread lets
	// the thread's CPU clock time them.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	root := rc.tr.add(0, fmt.Sprintf("run/%s/%d/rep%d", spec.name, rc.seed, rep), "run", start, start)
	for i := 0; i < ticks; i++ {
		busy := ctl.Busy()
		c0, h0 := processCPU(), threadCPU()
		t0 := time.Now()
		if err := sys.Run(tick); err != nil {
			return nil, fmt.Errorf("tick %d: %w", i, err)
		}
		t1 := time.Now()
		h1, c1 := threadCPU(), processCPU()
		r.threadMs = append(r.threadMs, ms(h1-h0))
		r.cpuMs = append(r.cpuMs, ms(c1-c0))
		d := t1.Sub(t0)
		r.tickSum += d
		r.tickMs = append(r.tickMs, ms(d))
		heap.sample()
		if busy || ctl.Busy() {
			r.alignMs = append(r.alignMs, ms(d))
		}
		var solve time.Duration
		for _, res := range sys.Optimizations()[nOpt:] {
			solve += res.Elapsed
			r.solveMs = append(r.solveMs, ms(res.Elapsed))
		}
		nOpt = len(sys.Optimizations())
		r.solveT += solve
		if p == nil {
			continue
		}
		key := fmt.Sprintf("rep%d/tick/%d", rep, i)
		id := rc.tr.add(root, key, "engine.tick", t0, t1)
		_, rows, fill := p.fill.take()
		calls, _, samp := p.sample.take()
		r.fillRows += rows
		r.fillT += fill
		r.sampleCalls += calls
		r.sampleT += samp
		// Fill and sample spans aggregate the tick's calls: their
		// duration is the summed call time, anchored at the tick start.
		rc.tr.add(id, key, "source.fill", t0, t0.Add(fill))
		rc.tr.add(id, key, "stats.sample", t0, t0.Add(samp))
		if solve > 0 {
			rc.tr.add(id, key, "optimizer.solve", t1.Add(-solve), t1)
		}
		var store time.Duration
		if p.store != nil {
			for _, c := range p.store.take() {
				rc.tr.add(id, key, "checkpoint.store."+c.op, c.start, c.end)
				store += c.end.Sub(c.start)
			}
		}
		self := d - fill - samp - solve - store
		if self < 0 {
			r.overT -= self
		}
		r.selfMs = append(r.selfMs, ms(self))
	}
	r.wall = time.Since(start)
	if rc.tr != nil {
		rc.tr.spans[root-1].End = time.Now().Sub(rc.tr.epoch).Nanoseconds()
	}
	eng.Metrics().StopMeasurement(eng.Clock())
	after := sys.Snapshot()
	r.d = delta(before, after)
	r.rows = eng.GeneratedTuples() - rows0
	r.stalls = eng.StallTicks() - stalls0
	r.netBytes = after.Net.BytesNet - before.Net.BytesNet
	r.processed = eng.Metrics().ProcessedTotal()
	r.lostBytes = after.LostBytes
	if p != nil && p.store != nil {
		r.puts = p.store.puts
	}
	r.digest = stateDigest(sys)
	return r, nil
}

func runInproc(spec inprocSpec, rc runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	traced := rc.tr != nil
	horizon := rc.seconds * spec.vsPerSec

	var (
		heap                    heapProbe
		setups, setupsWall      []float64
		warmDigests, endDigests []string
		reps                    []*repOut
	)
	for k := 0; k < setupReps; k++ {
		runtime.GC() // let the previous system go before building the next
		c0, t0 := processCPU(), time.Now()
		sys, p, err := setupInproc(spec, rc.seed, traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupsWall = append(setupsWall, time.Since(t0).Seconds())
		warmDigests = append(warmDigests, stateDigest(sys))
		tick := sys.Engine().Config().Tick
		ticks := max(1, int(math.Round(horizon/setupReps*float64(vtime.Second)/float64(tick))))
		r, err := measureRep(spec, rc, k, sys, p, ticks, &heap)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		endDigests = append(endDigests, r.digest)
	}
	allSame := func(ds []string) bool {
		for _, d := range ds[1:] {
			if d != ds[0] {
				return false
			}
		}
		return true
	}
	o.check("setups-identical", allSame(warmDigests), "primed-state digests %v", warmDigests)
	o.check("reps-identical", allSame(endDigests), "measured-state digests %v", endDigests)

	r0 := reps[0]
	var tot repOut
	var windowMs []float64
	for _, r := range reps {
		windowMs = append(windowMs, windowMedians(r.tickMs, r.threadMs, latencyWindow)...)
		tot.tickMs = append(tot.tickMs, r.tickMs...)
		tot.threadMs = append(tot.threadMs, r.threadMs...)
		tot.cpuMs = append(tot.cpuMs, r.cpuMs...)
		tot.selfMs = append(tot.selfMs, r.selfMs...)
		tot.alignMs = append(tot.alignMs, r.alignMs...)
		tot.solveMs = append(tot.solveMs, r.solveMs...)
		tot.puts = append(tot.puts, r.puts...)
		tot.fillRows += r.fillRows
		tot.sampleCalls += r.sampleCalls
		tot.rows += r.rows
		tot.stalls += r.stalls
		tot.fillT += r.fillT
		tot.sampleT += r.sampleT
		tot.solveT += r.solveT
		tot.overT += r.overT
		tot.tickSum += r.tickSum
		tot.wall += r.wall
		tot.netBytes += r.netBytes
		d := &tot.d
		d.Triggers += r.d.Triggers
		d.Applied += r.d.Applied
		d.Solves += r.d.Solves
		d.NodesExplored += r.d.NodesExplored
		d.Checkpoints += r.d.Checkpoints
		d.CheckpointBytes += r.d.CheckpointBytes
		d.MigrationsStaged += r.d.MigrationsStaged
		d.MigrationPauseSec += r.d.MigrationPauseSec
	}
	o.attempted = int64(len(tot.tickMs))
	o.work = tot.tickSum
	o.digest = r0.digest

	// Output checks: the operators processed rows in the measured
	// window, nothing was lost, and the control loop acted.
	processed, lost := true, true
	for _, r := range reps {
		processed = processed && r.processed > 0 && !math.IsInf(r.processed, 0)
		lost = lost && r.lostBytes == 0 && r.rows > 0
	}
	o.check("operators-processed", processed, "processed %.4g modelled tuples per system", r0.processed)
	o.check("nothing-lost", lost, "lost %.0f bytes, %d rows generated per system", r0.lostBytes, r0.rows)
	if horizon >= spec.minVS {
		spec.acted(o, tot.d)
	}
	// The side runs that compare SASPAR on with SASPAR off come after
	// the measurement, so they touch none of its figures; the traced
	// run leaves them to the untraced one.
	if !traced {
		t0 := time.Now()
		on, err := runSide(spec, rc.seed, true)
		if err != nil {
			return nil, err
		}
		off, err := runSide(spec, rc.seed, false)
		if err != nil {
			return nil, err
		}
		checkSide(o, on, off)
		o.named = append(o.named, namedValue{"check_side_runs_s", "s", time.Since(t0).Seconds()})
	}

	// The host runs slower in spells of a second or more (see
	// cpuclock.go), so both figures are means over the whole run, in
	// which a spell weighs by its length: throughput over every measured
	// tick of every system, and latency over the median ticks of
	// latencyWindow-long windows. The median of all ticks would jump
	// between the fast and the slow spells' tick times as the share of
	// slow spells crossed a half.
	tickMs := tot.tickMs
	o.e2e["throughput_mrows_per_cpu_s"] = float64(tot.rows) / (sum(tot.cpuMs) / 1e3) / 1e6
	o.e2e["latency_p50_ms"] = sum(windowMs) / float64(len(windowMs))
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.e2e["heap_p90_mb"] = heap.p90MB()
	o.named = append(o.named, []namedValue{
		{"inproc_mrows_per_cpu_s", "Mrows/cpu-s", o.e2e["throughput_mrows_per_cpu_s"]},
		{"inproc_mrows_per_s", "Mrows/s", float64(tot.rows) / tot.wall.Seconds() / 1e6},
		{"tick_window_p50_ms", "ms", o.e2e["latency_p50_ms"]},
		{"tick_p50_ms", "ms", quantile(tot.threadMs, 0.5)},
		{"latency_windows", "count", float64(len(windowMs))},
		{"tick_wall_p50_ms", "ms", quantile(tickMs, 0.5)},
		{"tick_wall_p99_ms", "ms", quantile(tickMs, 0.99)},
		{"tick_samples", "count", float64(len(tickMs))},
		{"tick_samples_beyond_p99", "count", float64(beyond(tickMs, 0.99))},
		{"systems_measured", "count", float64(len(reps))},
		{"measured_vs", "vs", horizon},
		{"setup_s", "s", o.e2e["setup_s"]},
		{"setup_min_s", "s", quantile(setups, 0)},
		{"setup_max_s", "s", quantile(setups, 1)},
		{"setup_wall_s", "s", quantile(setupsWall, 0.5)},
		{"heap_p90_mb", "MB", o.e2e["heap_p90_mb"]},
		{"heap_peak_mb", "MB", heap.peakMB()},
	}...)

	if !traced {
		return o, nil
	}
	l := o.layers
	for _, def := range perLayer {
		l[def.name] = 0
	}
	wall, d := tot.wall, tot.d
	if tot.fillRows > 0 {
		l[spec.fillName] = float64(tot.fillT.Nanoseconds()) / float64(tot.fillRows)
	}
	l["stats.sample_calls"] = float64(tot.sampleCalls)
	if tot.sampleCalls > 0 {
		l["stats.sample_ns_per_call"] = float64(tot.sampleT.Nanoseconds()) / float64(tot.sampleCalls)
	}
	l["stats.sample_share"] = tot.sampleT.Seconds() / wall.Seconds()
	l["engine.tick_self_ms_p50"] = quantile(tot.selfMs, 0.5)
	l["engine.tick_p99_ms"] = quantile(tickMs, 0.99)
	l["engine.rows_per_tick"] = float64(tot.rows) / float64(o.attempted)
	l["engine.stall_ticks"] = float64(tot.stalls)
	l["gc.heap_peak_mb"] = heap.peakMB()
	l["netsim.bytes_per_row"] = tot.netBytes / float64(tot.rows)
	l["optimizer.solves"] = float64(d.Solves)
	l["optimizer.solve_ms_p50"] = quantile(tot.solveMs, 0.5)
	l["optimizer.nodes"] = float64(d.NodesExplored)
	l["optimizer.solve_share"] = tot.solveT.Seconds() / wall.Seconds()
	l["core.triggers"] = float64(d.Triggers)
	l["core.applied"] = float64(d.Applied)
	if d.Triggers > 0 {
		l["core.applied_per_trigger"] = float64(d.Applied) / float64(d.Triggers)
	}
	l["aqe.align_ticks"] = float64(len(tot.alignMs))
	l["aqe.align_tick_ms_p50"] = quantile(tot.alignMs, 0.5)
	l["migration.pause_vs"] = d.MigrationPauseSec
	l["checkpoint.completed"] = float64(d.Checkpoints)
	l["checkpoint.bytes_stored"] = d.CheckpointBytes
	if len(tot.puts) > 0 {
		var puts []float64
		for _, d := range tot.puts {
			puts = append(puts, d.Seconds()*1e6)
		}
		l["checkpoint.store_put_us_p50"] = quantile(puts, 0.5)
	}
	unaccounted := pct(wall-tot.tickSum, wall)
	l["trace.unaccounted_pct"] = unaccounted
	o.check("layers-sum-to-ticks", pct(tot.overT, tot.tickSum) <= layerBoundPct && unaccounted <= layerBoundPct,
		"children over-cover ticks by %.2f%%, %.2f%% of the run is outside ticks (bound %.0f%%)",
		pct(tot.overT, tot.tickSum), unaccounted, layerBoundPct)
	self := rc.tr.selfTimes()
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.named = append(o.named, namedValue{"self." + n + "_share", "ratio", self[n].Seconds() / wall.Seconds()})
	}
	return o, nil
}

// windowMedians cuts a system's ticks into consecutive windows of
// about window wall time, by the ticks' own wall times, and returns
// each window's median of vals.
func windowMedians(wallMs, vals []float64, window time.Duration) []float64 {
	var out, cur []float64
	var acc float64
	for i, w := range wallMs {
		cur = append(cur, vals[i])
		if acc += w; acc >= ms(window) {
			out = append(out, quantile(cur, 0.5))
			cur, acc = cur[:0], 0
		}
	}
	// A remainder shorter than half a window is left out: it would
	// weigh as much as a whole one.
	if len(cur) > 0 && (acc >= ms(window)/2 || len(out) == 0) {
		out = append(out, quantile(cur, 0.5))
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// delta is the measured phase's share of the cumulative report
// counters.
func delta(a, b core.Report) core.Report {
	return core.Report{
		Triggers:          b.Triggers - a.Triggers,
		Applied:           b.Applied - a.Applied,
		Solves:            b.Solves - a.Solves,
		NodesExplored:     b.NodesExplored - a.NodesExplored,
		Checkpoints:       b.Checkpoints - a.Checkpoints,
		CheckpointBytes:   b.CheckpointBytes - a.CheckpointBytes,
		MigrationsStaged:  b.MigrationsStaged - a.MigrationsStaged,
		MigrationPauseSec: b.MigrationPauseSec - a.MigrationPauseSec,
	}
}

// stateDigest fingerprints a system's deterministic state: the control
// loop's counters, the network byte accounting, the rows generated,
// the operators' processed and emitted totals, and every query's
// current assignment. Two runs of one seed must agree on it exactly.
func stateDigest(sys *core.System) string {
	r := sys.Snapshot()
	eng := sys.Engine()
	m := eng.Metrics()
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %d\n", r.Clock, r.Triggers, r.DriftTriggers, r.SkippedPlans,
		r.Optimizations, r.Solves, r.NodesExplored, r.Applied, r.Checkpoints, r.MigrationsStaged, r.MigrationFallbacks)
	for _, f := range []float64{r.CheckpointBytes, r.AlignmentBytes, r.MigrationPauseSec, r.Net.BytesNet,
		r.Net.BytesLocal, r.Net.BytesRefused, m.ProcessedTotal(), m.EmittedTotal()} {
		fmt.Fprintf(h, "%x ", math.Float64bits(f))
	}
	fmt.Fprintf(h, "\n%d %d\n", eng.GeneratedTuples(), eng.StallTicks())
	for q := 0; q < eng.NumQueries(); q++ {
		fmt.Fprintf(h, "%d %v\n", q, eng.Assignment(q).Table())
		for _, a := range eng.Results(q) {
			fmt.Fprintf(h, "%d %d %x %x\n", a.Win, a.Key, math.Float64bits(a.Sum), math.Float64bits(a.Weight))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// heapProbe samples the Go heap as the collector's heap goal: the size
// it lets the heap grow to before the next collection. Unlike the bytes
// in heap objects at a sampling instant, it does not depend on where in
// a collection cycle the sample falls. Its maximum does depend on what
// a collection happened to find live: one that marks during a solve's
// burst of allocation raises the goal until the next, and on
// drift-ajoin the maximum moved between 7.4 and 12.2 MB across seeds
// while the 90th percentile of the samples stayed within 2%.
type heapProbe struct {
	s   [1]metrics.Sample
	mbs []float64
}

func (h *heapProbe) sample() {
	if h.s[0].Name == "" {
		h.s[0].Name = "/gc/heap/goal:bytes"
	}
	metrics.Read(h.s[:])
	h.mbs = append(h.mbs, float64(h.s[0].Value.Uint64())/(1<<20))
}

// p90MB is the end-to-end heap figure, peakMB the per-layer one.
func (h *heapProbe) p90MB() float64  { return quantile(h.mbs, 0.9) }
func (h *heapProbe) peakMB() float64 { return quantile(h.mbs, 1) }
