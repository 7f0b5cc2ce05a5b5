package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saspar/internal/engine"
	"saspar/internal/obs"
	srt "saspar/internal/runtime"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// The serve-loopback workload: an open loop over one TCP connection to
// an in-process runtime.Server that serves one stream and one keyed
// exact-window aggregation. Frames are generated from the seed and
// encoded during set-up, then sent on a fixed schedule; every frame is
// timed from when it was due, so a stall also delays the frames queued
// behind it.
const (
	frameRows   = 4096
	framePool   = 64 // distinct pre-encoded frames, sent in rotation
	primeFrames = 8
	// serveSetupReps is how often a run builds and starts a server;
	// setup_s is the median. One set-up takes about 25 ms.
	serveSetupReps = 9
	serveKeys      = 256
	serveValues    = 1000

	// fixedRate is the rate latency is read at, below saturation on the
	// reference host.
	fixedRate = 2.0 // Mrows/s

	// Shares of --seconds spent at the fixed rate, on the ladder and in
	// the closing blast.
	fixedShare, ladderShare, blastShare = 0.3, 0.1, 0.6
	// blastCapRate bounds how many frames a blast can need, in Mrows/s.
	blastCapRate = 20.0

	// claimLimitMs is the claim p99 a ladder step must stay within to
	// count as admitted.
	claimLimitMs = 20.0
	// lateLimitMs is how late (p99) the generator may send before a
	// step is marked invalid instead of judged.
	lateLimitMs = 5.0
	// growSlackFrames is how far the backlog may rise over the second
	// half of a step before it counts as growing: one tick may claim
	// up to 16 frames, so smaller rises are claim granularity.
	growSlackFrames = 32

	serveMaxNodes = 2000

	pollEvery   = 100 * time.Microsecond
	reportEvery = 16
	// blastPollEvery paces the polls of the blast, which needs only the
	// claimed count at its ends; polling it every pollEvery took CPU
	// from the served path it measures.
	blastPollEvery = 2 * time.Millisecond
)

// ladderRates are the rates above fixedRate the admission search steps
// through, in Mrows/s.
var ladderRates = []float64{3, 4, 5, 6, 7, 8}

var serveWindow = engine.WindowSpec{Range: 2 * vtime.Second, Slide: 2 * vtime.Second}

// idleSource backs the served stream's schema; served rows come from
// the ingest ring, so it is never asked for rows.
type idleSource struct{}

func (idleSource) NextBlock(*engine.TupleBlock, int, int) {}

func serveWorkload() *workload.Workload {
	return &workload.Workload{
		Name: "serve-loopback",
		Streams: []engine.StreamDef{{
			Name: "events", NumCols: 3, BytesPerTuple: 88,
			NewSource: func(int) engine.Source { return idleSource{} },
		}},
		Queries: []engine.QuerySpec{{
			ID: "sum-by-key", Kind: engine.OpAggregate,
			Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
			Window: serveWindow,
			AggCol: 2,
		}},
		Rates: []float64{1e6}, // validation only: served load is what arrives
	}
}

// frameSet is the pre-encoded load: framePool blocks, their wire bytes
// and their column-2 sums.
type frameSet struct {
	blocks []*engine.TupleBlock
	wire   [][]byte
	sums   []int64
}

func makeFrames(seed int64) (*frameSet, error) {
	rng := rand.New(rand.NewSource(seed))
	fs := &frameSet{}
	var scratch []byte
	for i := 0; i < framePool; i++ {
		b := &engine.TupleBlock{}
		b.Resize(frameRows, 3)
		var sum int64
		for r := 0; r < frameRows; r++ {
			b.Col[0][r] = rng.Int63n(serveKeys)
			b.Col[1][r] = rng.Int63n(serveValues)
			b.Col[2][r] = rng.Int63n(serveValues)
			sum += b.Col[2][r]
		}
		var buf bytes.Buffer
		if err := srt.WriteFrame(&buf, b, 3, &scratch); err != nil {
			return nil, err
		}
		fs.blocks = append(fs.blocks, b)
		fs.wire = append(fs.wire, buf.Bytes())
		fs.sums = append(fs.sums, sum)
	}
	return fs, nil
}

// rig is one started server with its producer connection.
type rig struct {
	srv      *srt.Server
	conn     net.Conn
	frames   *frameSet
	queue    *srt.BlockQueue
	accepted *obs.Counter // rows the ingest ring accepted
	full     *obs.Counter // offers bounced off a full ring
	sample   layerClock
	tick     vtime.Duration

	sent    int64 // frames written
	sentSum int64 // their column-2 sum
	polls   []poll
	nPolls  int
	// pollEvery and reportEvery pace the polls of the current phase; a
	// reportEvery of 0 takes no reports until the phase ends.
	pollEvery   time.Duration
	reportEvery int
	heap        heapProbe
	lastV       vtime.Duration

	drop    int64         // frame index not written (fault injection)
	drain   time.Duration // how long to wait for rows still owed
	started time.Time     // when the server started
}

// poll is one observation of the server from outside. The ring's
// counter and length are read without a lock; every reportEvery-th
// poll also takes a Server.Report(), which waits for the running tick.
type poll struct {
	t        time.Time
	cpu      time.Duration // the process's CPU clock
	accepted int64         // rows the ring accepted (serve_ingest_rows_total)
	claimed  int64         // rows the engine took off the ring: accepted minus rows pending
	pending  int           // blocks waiting in the ring

	report   bool           // the fields below are set
	ingested int64          // Report().IngestedRows
	v        vtime.Duration // the virtual clock
	results  int            // closed-window results of the query
}

func newRig(rc runConfig) (*rig, error) {
	seed := rc.seed
	frames, err := makeFrames(seed)
	if err != nil {
		return nil, err
	}
	ec := engine.DefaultConfig()
	ec.Nodes, ec.NumPartitions, ec.NumGroups, ec.SourceTasks = 2, 4, 32, 1
	ec.TupleWeight = 1
	ec.ExactWindows = true
	ec.Seed = seed
	// The served plan is one query over 32 groups; a small node cap
	// keeps the optimizer light here, since drift-ajoin measures it.
	cc := deterministicCore()
	cc.Opt.MaxNodes = serveMaxNodes
	cc.Obs = obs.New()
	srv, err := srt.NewServer(srt.Config{
		Workload: serveWorkload(), Engine: ec, Core: cc,
		Addr: "127.0.0.1:0", RingBlocks: 64, BlockRows: frameRows,
	})
	if err != nil {
		return nil, err
	}
	r := &rig{
		srv: srv, frames: frames, queue: srv.Queue(0, 0), tick: ec.Tick,
		accepted:    cc.Obs.Counter(`serve_ingest_rows_total{stream="0",task="0"}`, ""),
		full:        cc.Obs.Counter(`serve_ring_full_total{stream="0",task="0"}`, ""),
		drop:        -1,
		drain:       2*time.Second + time.Duration(rc.seconds*float64(time.Second)),
		pollEvery:   pollEvery,
		reportEvery: reportEvery,
	}
	if rc.dropFrame > 0 {
		r.drop = rc.dropFrame
	}
	if rc.tr != nil {
		sys := srv.System()
		sys.Engine().SetSampler(timedSampler{sys.Collector(), &r.sample}, cc.SampleEvery)
	}
	r.started = time.Now()
	if err := srv.Start(); err != nil {
		return nil, err
	}
	r.conn, err = net.Dial("tcp", srv.Addr())
	if err == nil {
		err = srt.WriteHeader(r.conn, srt.Header{Stream: 0, Task: 0, Cols: 3})
	}
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *rig) stop() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.srv.Stop()
}

// observe polls the server once. Every ring block holds one whole
// frame, so the rows the engine claimed are the rows accepted less the
// blocks still pending; the counter is read first, so a block pushed
// between the two reads is never taken for claimed.
func (r *rig) observe(report bool) poll {
	p := poll{accepted: int64(r.accepted.Value())}
	p.pending = r.queue.Pending()
	p.t = time.Now()
	p.cpu = processCPU()
	p.claimed = p.accepted - int64(p.pending)*frameRows
	if !report {
		return p
	}
	rep := r.srv.Report()
	p.report, p.ingested = true, rep.IngestedRows
	if len(rep.Queries) > 0 {
		p.results = rep.Queries[0].Results
	}
	if v, err := time.ParseDuration(rep.VirtualTime); err == nil {
		p.v = v
	}
	return p
}

// stepResult is one phase of the open loop.
type stepResult struct {
	rate        float64
	frames      int
	first       int // index of the phase's first poll
	due, start  []time.Time
	sent        []time.Time
	end0        int64 // cumulative rows before the phase
	claimMs     []float64
	lateMs      []float64
	growing     bool
	pendingMax  int
	claimedPoll []int // per frame: first poll whose claim covers it
	acceptPoll  []int
}

// phase sends n frames at rate Mrows/s (0 sends back to back), or as
// many as it can before until when that is set, and polls until the
// engine has claimed every frame sent.
func (r *rig) phase(rate float64, n int, until time.Time) (*stepResult, error) {
	s := &stepResult{rate: rate, frames: n, end0: r.sent * frameRows, first: len(r.polls),
		due: make([]time.Time, n), start: make([]time.Time, n), sent: make([]time.Time, n)}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(frameRows) / (rate * 1e6) * float64(time.Second))
	}
	t0 := time.Now().Add(time.Millisecond)
	for i := range s.due {
		s.due[i] = t0.Add(time.Duration(i) * interval)
	}
	base := r.sent
	var wg sync.WaitGroup
	var werr error
	var written atomic.Int64
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			if w := time.Until(s.due[i]); w > 0 {
				time.Sleep(w)
			}
			s.start[i] = time.Now()
			if !until.IsZero() && s.start[i].After(until) {
				s.start[i] = time.Time{}
				return
			}
			if idx := base + int64(i); idx != r.drop {
				if _, err := r.conn.Write(r.frames.wire[idx%framePool]); err != nil {
					werr = err
					return
				}
			}
			s.sent[i] = time.Now()
			written.Add(1)
		}
	}()
	var target int64
	var deadline time.Time
	sending := true
	for {
		r.nPolls++
		p := r.observe(r.reportEvery > 0 && r.nPolls%r.reportEvery == 0)
		if p.pending > s.pendingMax {
			s.pendingMax = p.pending
		}
		// Keep the polls that saw something new.
		if n := len(r.polls); p.report || n == 0 || p.accepted != r.polls[n-1].accepted || p.claimed != r.polls[n-1].claimed {
			r.polls = append(r.polls, p)
		}
		if r.nPolls%64 == 0 {
			r.heap.sample()
		}
		if sending {
			select {
			case <-done:
				sending = false
				deadline = time.Now().Add(r.drain)
				target = s.end0 + written.Load()*frameRows
			default:
			}
		}
		if !sending && (p.claimed >= target || werr != nil || time.Now().After(deadline)) {
			break
		}
		time.Sleep(r.pollEvery)
	}
	wg.Wait()
	r.polls = append(r.polls, r.observe(true))
	s.frames = int(written.Load())
	s.due, s.start, s.sent = s.due[:s.frames], s.start[:s.frames], s.sent[:s.frames]
	for i := 0; i < s.frames; i++ {
		r.sent++
		r.sentSum += r.frames.sums[(base+int64(i))%framePool]
	}
	if werr != nil {
		return s, fmt.Errorf("sending frames: %w", werr)
	}
	for i := len(r.polls) - 1; i >= 0; i-- {
		if r.polls[i].report {
			r.lastV = r.polls[i].v
			break
		}
	}
	s.attribute(r.polls)
	return s, nil
}

// attribute maps every frame to the polls that first saw it accepted
// and claimed, and derives claim latency, lateness and backlog growth.
func (s *stepResult) attribute(polls []poll) {
	ps := polls[s.first:]
	s.claimedPoll = make([]int, s.frames)
	s.acceptPoll = make([]int, s.frames)
	c, a := 0, 0
	for i := 0; i < s.frames; i++ {
		end := s.end0 + int64(i+1)*frameRows
		for c < len(ps) && ps[c].claimed < end {
			c++
		}
		for a < len(ps) && ps[a].accepted < end {
			a++
		}
		s.claimedPoll[i], s.acceptPoll[i] = -1, -1
		if c < len(ps) {
			s.claimedPoll[i] = s.first + c
			s.claimMs = append(s.claimMs, ms(ps[c].t.Sub(s.due[i])))
		}
		if a < len(ps) {
			s.acceptPoll[i] = s.first + a
		}
		if !s.start[i].IsZero() {
			s.lateMs = append(s.lateMs, ms(s.start[i].Sub(s.due[i])))
		}
	}
	// Backlog against the schedule (rows due but not yet claimed) at
	// the middle and at the end of the step.
	if s.frames < 2 || s.rate == 0 {
		return
	}
	interval := s.due[1].Sub(s.due[0])
	backlog := func(p poll) int64 {
		due := int64(p.t.Sub(s.due[0])/interval) + 1
		if due > int64(s.frames) {
			due = int64(s.frames)
		}
		return s.end0 + due*frameRows - p.claimed
	}
	mid := s.due[0].Add(s.due[s.frames-1].Sub(s.due[0]) / 2)
	last := s.due[s.frames-1]
	var bMid, bEnd int64
	seenMid := false
	for _, p := range ps {
		if p.t.Before(mid) {
			continue
		}
		if !seenMid {
			bMid, seenMid = backlog(p), true
		}
		if p.t.After(last) {
			break
		}
		bEnd = backlog(p)
	}
	s.growing = seenMid && bEnd-bMid > growSlackFrames*frameRows
}

func runServeLoopback(rc runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	traced := rc.tr != nil
	var r *rig
	var setups, setupsWall []float64
	for i := 0; i < serveSetupReps; i++ {
		if r != nil {
			r.stop()
		}
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		var err error
		if r, err = newRig(rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupsWall = append(setupsWall, time.Since(t0).Seconds())
	}
	defer r.stop()
	// Priming waits for the engine's ticks to claim the frames, which
	// takes a varying share of a tick; it is outside setup_s.
	if _, err := r.phase(0, primeFrames, time.Time{}); err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}
	full0 := r.full.Value()

	// The fixed-rate phase gives the latency metrics, the ladder steps
	// above it the admitted rate, and the closing blast the sustained
	// rate the served path claims when the connection sends back to
	// back.
	fixedFrames := int(rc.seconds * fixedShare * fixedRate * 1e6 / frameRows)
	if fixedFrames < 2 {
		fixedFrames = 2
	}
	r.sample.take()
	fixedStart := time.Now()
	fixed, err := r.phase(fixedRate, fixedFrames, time.Time{})
	fixedWall := time.Since(fixedStart)
	sampleCalls, _, sampleT := r.sample.take()
	if err != nil {
		return nil, err
	}
	steps := []*stepResult{fixed}
	stepSec := rc.seconds * ladderShare / float64(len(ladderRates))
	invalid := 0
	for _, rate := range ladderRates {
		prev := steps[len(steps)-1]
		if !admitted(prev) {
			break
		}
		n := int(stepSec * rate * 1e6 / frameRows)
		if n < 2 {
			n = 2
		}
		st, err := r.phase(rate, n, time.Time{})
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	for _, st := range steps {
		if !valid(st) {
			invalid++
		}
	}
	admit := admitRate(steps)
	blastFor := time.Duration(rc.seconds * blastShare * float64(time.Second))
	r.pollEvery, r.reportEvery = blastPollEvery, 0
	blast, err := r.phase(0, int(blastFor.Seconds()*blastCapRate*1e6/frameRows)+1, time.Now().Add(blastFor))
	if err != nil {
		return nil, err
	}
	blastCPU, blastWall := blastRate(blast, r.polls)

	// Drain: every sent row claimed, then idle ticks until the last
	// window has closed.
	totalRows := r.sent * frameRows
	closeAt := r.lastV + 2*serveWindow.Range + vtime.Second
	deadline := time.Now().Add(r.drain)
	var last poll
	for {
		last = r.observe(true)
		r.polls = append(r.polls, last)
		if (last.ingested >= totalRows && last.v >= closeAt) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.stop()
	served := time.Since(r.started)
	o.missing = (totalRows - last.ingested + frameRows - 1) / frameRows
	o.attempted = r.sent

	// Conservation: the exact windows hold every row and the column-2
	// sum the generator sent.
	sys := r.srv.System()
	eng := sys.Engine()
	var weight, sum float64
	results := eng.Results(0)
	for _, a := range results {
		weight += a.Weight
		sum += a.Sum
	}
	o.check("rows-claimed", last.ingested == totalRows, "claimed %d of %d rows sent", last.ingested, totalRows)
	o.check("window-weight", weight == float64(totalRows), "sum of window weights %.0f, rows sent %d", weight, totalRows)
	o.check("window-sum", sum == float64(r.sentSum), "sum of window sums %.0f, column-2 sum sent %d", sum, r.sentSum)

	emitMs := emitLatencies(fixed, r.polls, results, r.tick)
	claimP50, claimP99 := quantile(fixed.claimMs, 0.5), quantile(fixed.claimMs, 0.99)
	o.work = time.Duration(claimP50 * 1e6)
	o.e2e["throughput_mrows_per_cpu_s"] = blastCPU
	o.e2e["latency_p50_ms"] = claimP50
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.e2e["heap_p90_mb"] = r.heap.p90MB()
	o.named = []namedValue{
		{"serve_blast_mrows_per_cpu_s", "Mrows/cpu-s", blastCPU},
		{"serve_blast_mrows_per_s", "Mrows/s", blastWall},
		{"serve_admit_mrows_per_s", "Mrows/s", admit},
		{"serve_claim_p50_ms", "ms", claimP50},
		{"serve_claim_p99_ms", "ms", claimP99},
		{"serve_emit_p50_ms", "ms", quantile(emitMs, 0.5)},
		{"claim_samples", "count", float64(len(fixed.claimMs))},
		{"claim_samples_beyond_p99", "count", float64(beyond(fixed.claimMs, 0.99))},
		{"emit_samples", "count", float64(len(emitMs))},
		{"setup_s", "s", o.e2e["setup_s"]},
		{"setup_min_s", "s", quantile(setups, 0)},
		{"setup_max_s", "s", quantile(setups, 1)},
		{"setup_wall_s", "s", quantile(setupsWall, 0.5)},
		{"heap_p90_mb", "MB", o.e2e["heap_p90_mb"]},
		{"heap_peak_mb", "MB", r.heap.peakMB()},
	}
	for _, st := range steps {
		o.named = append(o.named, namedValue{fmt.Sprintf("step_%g_claim_p99_ms", st.rate), "ms", quantile(st.claimMs, 0.99)})
		o.named = append(o.named, namedValue{fmt.Sprintf("step_%g_late_p99_ms", st.rate), "ms", quantile(st.lateMs, 0.99)})
	}
	if !traced {
		return o, nil
	}

	l := o.layers
	for _, def := range perLayer {
		l[def.name] = 0
	}
	snap := sys.Snapshot()
	ticks := float64(eng.Clock()) / float64(r.tick)
	l["serve.admit_mrows_per_s"] = admit
	l["serve.claim_p99_ms"] = claimP99
	l["serve.send_late_ms_p99"] = quantile(fixed.lateMs, 0.99)
	l["serve.emit_p50_ms"] = quantile(emitMs, 0.5)
	l["serve.sample_share"] = sampleT.Seconds() / fixedWall.Seconds()
	l["serve.invalid_steps"] = float64(invalid)
	l["stats.sample_calls"] = float64(sampleCalls)
	if sampleCalls > 0 {
		l["stats.sample_ns_per_call"] = float64(sampleT.Nanoseconds()) / float64(sampleCalls)
	}
	l["stats.sample_share"] = l["serve.sample_share"]
	l["ring.full_total"] = r.full.Value() - full0
	l["ring.pending_max"] = float64(fixed.pendingMax)
	l["engine.rows_per_tick"] = float64(eng.GeneratedTuples()) / ticks
	l["engine.stall_ticks"] = float64(eng.StallTicks())
	l["gc.heap_peak_mb"] = r.heap.peakMB()
	l["netsim.bytes_per_row"] = snap.Net.BytesNet / float64(eng.GeneratedTuples())
	l["optimizer.solves"] = float64(snap.Solves)
	l["optimizer.nodes"] = float64(snap.NodesExplored)
	l["core.triggers"] = float64(snap.Triggers)
	l["core.applied"] = float64(snap.Applied)
	if snap.Triggers > 0 {
		l["core.applied_per_trigger"] = float64(snap.Applied) / float64(snap.Triggers)
	}
	var solveMs []float64
	var solveT time.Duration
	for _, res := range sys.Optimizations() {
		solveMs = append(solveMs, ms(res.Elapsed))
		solveT += res.Elapsed
	}
	l["optimizer.solve_ms_p50"] = quantile(solveMs, 0.5)
	l["optimizer.solve_share"] = solveT.Seconds() / served.Seconds()

	net, ring, disorder, claimSum := frameSpans(rc.tr, fixed, r.polls)
	l["serve.net_ms_p50"] = quantile(net, 0.5)
	l["serve.ring_wait_ms_p50"] = quantile(ring, 0.5)
	l["trace.unaccounted_pct"] = pct(disorder, claimSum)
	o.check("stages-sum-to-claim", pct(disorder, claimSum) <= layerBoundPct,
		"%.2f%% of claim time observed out of stage order (bound %.0f%%)", pct(disorder, claimSum), layerBoundPct)
	enc, dec := wireCost(r.frames)
	l["wire.encode_ns_per_row"], l["wire.decode_ns_per_row"] = enc, dec
	return o, nil
}

// blastRate returns the rows the engine claimed during a back-to-back
// phase per second of the process's CPU clock and per second of wall
// time, in Mrows/s: means over the whole phase, so the spells of a few
// seconds in which the host runs slower weigh by their length.
func blastRate(s *stepResult, polls []poll) (perCPU, perWall float64) {
	if s.frames == 0 {
		return 0, 0
	}
	end := s.sent[s.frames-1]
	from, to := polls[s.first], polls[s.first]
	for _, p := range polls[s.first:] {
		if p.t.After(end) {
			break
		}
		to = p
	}
	rows := float64(to.claimed - from.claimed)
	return rows / (to.cpu - from.cpu).Seconds() / 1e6, rows / to.t.Sub(from.t).Seconds() / 1e6
}

func valid(s *stepResult) bool { return quantile(s.lateMs, 0.99) <= lateLimitMs }

// admitted reports whether a valid step kept its claim p99 within the
// limit without a growing backlog.
func admitted(s *stepResult) bool {
	return valid(s) && !s.growing && quantile(s.claimMs, 0.99) <= claimLimitMs
}

// admitRate is the highest ladder rate whose step was admitted, or 0
// when not even the fixed-rate step was.
func admitRate(steps []*stepResult) float64 {
	rate := 0.0
	for _, s := range steps {
		if !admitted(s) {
			break
		}
		rate = s.rate
	}
	return rate
}

// emitLatencies measures, per closed window, the time from the due
// time of the last fixed-phase frame claimed into it to the first poll
// whose report shows the window's results.
func emitLatencies(s *stepResult, polls []poll, results []engine.AggResult, tick vtime.Duration) []float64 {
	// Results are appended as windows close, so a window's results are
	// visible once the query's result count passes its last index.
	visibleAt := map[vtime.Time]int{}
	for i, a := range results {
		visibleAt[a.Win] = i + 1
	}
	lastFrame := map[vtime.Time]int{}
	for i, pi := range s.claimedPoll {
		if pi < 0 {
			continue
		}
		// Rows claimed in a tick carry event times inside it; the next
		// report sees the clock at that tick's end, or a few ticks on.
		rp := pi
		for rp < len(polls) && !polls[rp].report {
			rp++
		}
		if rp == len(polls) {
			continue
		}
		ev := polls[rp].v - tick
		if ev < 0 {
			ev = 0
		}
		lastFrame[vtime.Time(ev-ev%serveWindow.Range)] = i
	}
	var out []float64
	for win, f := range lastFrame {
		need, ok := visibleAt[win]
		if !ok {
			continue
		}
		for _, p := range polls[s.claimedPoll[f]:] {
			if p.report && p.results >= need {
				out = append(out, ms(p.t.Sub(s.due[f])))
				break
			}
		}
	}
	return out
}

// frameSpans records each fixed-phase frame's due → sent → accepted →
// claimed spans and returns the net and ring stage times. The stages
// add up to the claim latency exactly; disorder sums the time by which
// an observation would have put a stage before the previous one, which
// only a clock or bookkeeping fault can cause.
func frameSpans(tr *tracer, s *stepResult, polls []poll) (net, ring []float64, disorder, claimSum time.Duration) {
	root := tr.add(0, "run/serve", "run", s.due[0], s.due[0])
	var end time.Time
	for i := 0; i < s.frames; i++ {
		if s.claimedPoll[i] < 0 || s.acceptPoll[i] < 0 || s.sent[i].IsZero() {
			continue
		}
		claimed := polls[s.claimedPoll[i]].t
		accepted := polls[s.acceptPoll[i]].t
		sent := s.start[i]
		if sent.After(accepted) {
			disorder += sent.Sub(accepted)
			sent = accepted
		}
		key := fmt.Sprintf("frame/%d", i)
		id := tr.add(root, key, "serve.frame", s.due[i], claimed)
		tr.add(id, key, "serve.send_late", s.due[i], sent)
		tr.add(id, key, "serve.net", sent, accepted)
		tr.add(id, key, "serve.ring", accepted, claimed)
		net = append(net, ms(accepted.Sub(sent)))
		ring = append(ring, ms(claimed.Sub(accepted)))
		claimSum += claimed.Sub(s.due[i])
		if claimed.After(end) {
			end = claimed
		}
	}
	tr.spans[root-1].End = end.Sub(tr.epoch).Nanoseconds()
	return net, ring, disorder, claimSum
}

// wireCost times WriteFrame and ReadFrame over the pre-encoded frames
// in memory, in ns per row.
func wireCost(fs *frameSet) (encode, decode float64) {
	const minRun = 50 * time.Millisecond
	var buf bytes.Buffer
	buf.Grow(len(fs.wire[0]))
	var scratch []byte
	rows := 0
	t0 := time.Now()
	for time.Since(t0) < minRun {
		for _, b := range fs.blocks {
			buf.Reset()
			if err := srt.WriteFrame(&buf, b, 3, &scratch); err != nil {
				return math.NaN(), math.NaN()
			}
			rows += b.Len()
		}
	}
	encode = float64(time.Since(t0).Nanoseconds()) / float64(rows)
	var blk engine.TupleBlock
	rows = 0
	t0 = time.Now()
	for time.Since(t0) < minRun {
		for _, w := range fs.wire {
			n, err := srt.ReadFrame(bytes.NewReader(w), &blk, 3, &scratch)
			if err != nil {
				return math.NaN(), math.NaN()
			}
			rows += n
		}
	}
	decode = float64(time.Since(t0).Nanoseconds()) / float64(rows)
	return encode, decode
}
