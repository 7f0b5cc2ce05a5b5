package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"unsafe"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// maxClassesPerStream bounds the route classes of one stream so a
// shared tuple's class membership fits a single bitmask word. The
// SASPAR optimizer canonicalizes assignments per query signature, so
// real workloads stay far below this.
const maxClassesPerStream = 64

// queryInst is the engine's handle on one running query. Both inputs
// of a join share the single assignment, per Eq. 3 of the paper.
// Removed ad-hoc queries stay as inactive tombstones so query indexes
// remain stable.
type queryInst struct {
	idx      int
	spec     QuerySpec
	assign   *keyspace.Assignment
	inactive bool
}

// member is one (query, input side) consuming a route class.
type member struct {
	q    *queryInst
	side int
}

// routeClass is a set of (query, side) pairs whose partitioning
// decisions coincide: same stream, same key columns, same filter, and
// the same group→partition assignment. The router computes one route
// per class per tuple; accounting scales by class multiplicity.
type routeClass struct {
	id      int // index within the stream's class list
	stream  StreamID
	key     KeySpec
	filter  func(*Tuple) bool
	filtID  int
	sel     float64
	assign  *keyspace.Assignment
	members []member

	// route is the class's group→partition table, precomputed at plan
	// build so the per-tuple hot path indexes a flat slice instead of
	// chasing the Assignment pointer per lookup. It aliases the live
	// assignment table (see keyspace.Assignment.Table), so it can never
	// drift from assign; plans are rebuilt whenever assignments swap.
	route []keyspace.PartitionID
}

// classSignature is the grouping key for route-class construction.
// Assignments are compared by content fingerprint, so distinct
// Assignment objects with identical tables still merge (this is what
// collapses hundreds of identical non-shared queries into one class).
type classSignature struct {
	keyFP    uint64
	filtID   int
	sel      float64
	assignFP uint64
}

func (ks KeySpec) fingerprint() uint64 {
	h := uint64(len(ks)) * 0x9E3779B97F4A7C15
	for _, c := range ks {
		h = keyspace.Mix64(h ^ uint64(c+1))
	}
	return h
}

func assignmentFingerprint(a *keyspace.Assignment) uint64 {
	h := uint64(a.NumGroups())
	for g := 0; g < a.NumGroups(); g++ {
		h = keyspace.Mix64(h ^ uint64(a.Partition(keyspace.GroupID(g))+2))
	}
	return h
}

// streamPlan is the per-stream routing plan shared by all router tasks
// of that stream. It is rebuilt whenever assignments change.
type streamPlan struct {
	stream  StreamID
	classes []*routeClass
}

func buildStreamPlan(stream StreamID, queries []*queryInst) (*streamPlan, error) {
	plan := &streamPlan{stream: stream}
	bySig := map[classSignature]*routeClass{}
	for _, q := range queries {
		if q.inactive {
			continue
		}
		for side, in := range q.spec.Inputs {
			if in.Stream != stream {
				continue
			}
			sig := classSignature{
				keyFP:    in.Key.fingerprint(),
				filtID:   in.FilterID,
				sel:      in.effectiveSelectivity(),
				assignFP: assignmentFingerprint(q.assign),
			}
			rc, ok := bySig[sig]
			if !ok {
				rc = &routeClass{
					id:     len(plan.classes),
					stream: stream,
					key:    in.Key,
					filter: in.Filter,
					filtID: in.FilterID,
					sel:    sig.sel,
					assign: q.assign,
					route:  q.assign.Table(),
				}
				bySig[sig] = rc
				plan.classes = append(plan.classes, rc)
			}
			rc.members = append(rc.members, member{q: q, side: side})
		}
	}
	if len(plan.classes) > maxClassesPerStream {
		return nil, fmt.Errorf("engine: stream %d has %d route classes, max %d — canonicalize assignments per query signature",
			stream, len(plan.classes), maxClassesPerStream)
	}
	return plan, nil
}

// runCell is one per-(class, group) accumulator of the folded routing
// pass: row count and the first two moments of the rows' global tick
// indexes, fused in one struct so the hot loop touches a single cell.
type runCell struct{ k, si, si2 int64 }

// pendingSend is an entry routed but not yet shipped: tuple-at-a-time
// profiles stage it during the router phase and commit it at barrier
// B, micro-batch profiles hold sends until the batch boundary and
// release them as a burst.
type pendingSend struct {
	en       *entry
	copies   float64
	bytesPer float64 // wire bytes per concrete tuple (incl. weight)

	// f is the staged send fraction: serialization CPU was burned for
	// this share of the send during the router phase, against the
	// provisional per-node link estimate. commit re-clamps it downward against
	// authoritative link state before the bytes hit the network.
	f float64
}

// routerTask is one physical instance of a stream's partition operator,
// co-located with its source task (the paper's "Purchases Source 1/2"
// of Fig. 1 each feed their own partitioner).
type routerTask struct {
	idx    int // global router-task index (edge addressing)
	stream StreamID
	task   int
	node   cluster.NodeID
	src    Source
	// feed, when non-nil, switches this task from rate-driven synthesis
	// to wall-clock ingest: routeTick drains blocks queued on the feed
	// instead of asking src for rows (see SetBlockFeed).
	feed BlockFeed
	// fc cursors the external blocks claimed from feed this tick,
	// re-blocking arbitrary incoming block sizes to the engine's batch.
	fc  feedCursor
	rng *rand.Rand

	// rows counts the concrete tuples this task has generated — the raw
	// row throughput behind the sustained Mtuples/sec benchmark figure.
	rows int64

	rate     float64 // offered modelled tuples/sec for this task
	throttle float64 // backpressure pull-rate factor in (0,1]
	stalls   int64   // ticks whose prior-tick sends were partially refused
	carry    float64 // fractional concrete tuple accumulator
	offered  float64 // cumulative modelled tuples offered
	accepted float64 // cumulative modelled tuples actually shipped

	// Per-tick byte accounting feeding the throttle.
	tickOffered  float64
	tickAccepted float64

	held       []pendingSend // micro-batch: sends awaiting the boundary
	heldBytes  float64
	draining   []pendingSend // micro-batch: the materialized batch being paced out
	drainBytes float64

	// pending holds this tick's staged sends awaiting commit at barrier
	// B (tuple-at-a-time path).
	pending []pendingSend

	// gate spaces this task's tuple samples. Per task — not engine-wide
	// — so the sampled subsequence is a function of the task's own
	// tuple stream.
	gate sampleGate

	// Staged samples, delivered to the engine's sampler at barrier B in
	// task order. Flat buffers: sampLen[i] classes/groups starting at
	// the running offset belong to the i-th sampled tuple.
	sampClass []int
	sampGroup []keyspace.GroupID
	sampTS    []vtime.Time
	sampLen   []int

	// Per-tick routing scratch, reused across ticks (the engine is
	// single-threaded, so no synchronization): buckets maps a dense
	// route key — slot in shared mode, class·NumPartitions+slot in
	// non-shared mode — to the entry being filled, and usedKeys lists
	// the keys touched this tick so only they are scanned and reset.
	buckets  []*entry
	usedKeys []int

	// Columnar block scratch. blk is the generation block the source
	// fills; the classification passes write per-(class, row) results
	// into flat scatter scratch (class-major, batch-strided):
	//
	//	keyScr  — partition keys of the current class pass
	//	slotScr — target slot per (class, row); -1 = class rejected row
	//	grpScr  — key group per (class, row)
	//	accScr  — per row: bitmask of accepting classes (prepass)
	//	sampScr — row indexes of the block sampled this tick
	//
	// runAcc accumulates the folded run moments per (class, group)
	// across the whole tick — the class passes only bump one cell's
	// three counters per row; runs materialize at flush by scanning the
	// group space in (class, group) order. Accumulating per tick (never
	// per block) is what makes the run structure a pure function of the
	// tick's rows — one run per (class, slot, group) per tick, however
	// generation was blocked — so everything that folds per run (stray
	// reroute events, reservoir samples) is batch-invariant too.
	// slotN/slotXQ tally the shared merge pass the same flat way:
	// physical rows and extra served queries per target slot.
	blk     TupleBlock
	keyScr  []uint64
	slotScr []int32
	grpScr  []int32
	accScr  []uint64
	sampScr []int32
	runAcc  []runCell
	slotN   []int32
	slotXQ  []int32
	memCnt  []int32 // per class: member count, cached per tick
	accCnt  []int64 // per class: rows accepted this tick
	dupOf   []int32 // per class: earlier identical-key class, or -1

	// shim is the Tuple staging cell of the filter prepass. A field, not
	// a local: its address crosses the filter's function-value boundary,
	// and a local would escape to the heap once per block.
	shim Tuple
}

// maxFeedRowsPerTick bounds the rows a wall-clock feed task claims per
// tick (soft: the last claimed block may overshoot). It matches the
// maximum engine batch size, so one tick's claim is at most a handful
// of engine blocks at any configured BatchSize.
const maxFeedRowsPerTick = 1 << 16

// feedCursor adapts the blocks claimed from a BlockFeed this tick to
// the Source interface: NextBlock copies the next rows in arrival order
// into the engine's generation block, so the router's batched loop is
// identical for synthesized and served rows. The TS lane of incoming
// blocks is ignored — the router's even-spread tick stamping is the
// wall-clock → virtual-time translation.
type feedCursor struct {
	blocks []*TupleBlock
	bi, ri int // consume position: block index, row within block
	cols   int
}

func (fc *feedCursor) NextBlock(b *TupleBlock, from, to int) {
	for r := from; r < to; {
		src := fc.blocks[fc.bi]
		avail := src.Len() - fc.ri
		if need := to - r; avail > need {
			avail = need
		}
		for c := 0; c < fc.cols; c++ {
			copy(b.Col[c][r:r+avail], src.Col[c][fc.ri:fc.ri+avail])
		}
		r += avail
		fc.ri += avail
		if fc.ri == src.Len() {
			fc.bi++
			fc.ri = 0
		}
	}
}

// claimFeed drains queued external blocks (bounded per tick) and stages
// them on the cursor; returns the total claimed row count.
func (rt *routerTask) claimFeed(numCols int) int {
	fc := &rt.fc
	fc.blocks = fc.blocks[:0]
	fc.bi, fc.ri = 0, 0
	fc.cols = numCols
	n := 0
	for n < maxFeedRowsPerTick {
		b := rt.feed.Poll()
		if b == nil {
			break
		}
		if b.Len() == 0 {
			rt.feed.Release(b)
			continue
		}
		fc.blocks = append(fc.blocks, b)
		n += b.Len()
	}
	return n
}

// releaseFeed returns the tick's fully consumed blocks to the feed's
// producer for recycling.
func (rt *routerTask) releaseFeed() {
	for i, b := range rt.fc.blocks {
		rt.feed.Release(b)
		rt.fc.blocks[i] = nil
	}
	rt.fc.blocks = rt.fc.blocks[:0]
}

// routeTick generates and routes this task's tuples for one tick of
// length dt ending at e.clock. Runs in the router phase: it touches
// only task/node-local state plus read-only engine state, and stages
// its sends and samples for barrier B.
func (rt *routerTask) routeTick(e *Engine, nr *nodeRun, dt vtime.Duration) {
	plan := e.plans[rt.stream]
	def := e.streams[rt.stream]

	cpu := e.cluster.CPU(rt.node)
	var n int
	if rt.feed != nil {
		// Wall-clock ingest: the rows for this tick are whatever the
		// feed has queued (bounded), not a function of a configured
		// rate. Claimed rows are never dropped — backpressure is applied
		// upstream, at the ingest ring — so generation CPU is charged
		// against the node meter but does not clamp n, and the credit
		// throttle stays idle (its byte counters still reset so a later
		// detach resumes from a clean slate).
		n = rt.claimFeed(def.NumCols)
		if n == 0 {
			return
		}
		rt.tickOffered, rt.tickAccepted = 0, 0
		rt.offered += float64(n) * e.cfg.TupleWeight
		cpu.Take(e.cfg.Cost.GenCPU * e.cfg.TupleWeight * float64(n))
	} else {
		// Credit-based flow control: the pull rate tracks the fraction of
		// offered bytes the network actually accepted last tick, smoothed,
		// with a small additive probe so the rate recovers when capacity
		// frees up.
		ratio := 1.0
		if rt.tickOffered > 0 {
			ratio = rt.tickAccepted / rt.tickOffered
		}
		if ratio < 1 {
			rt.stalls++
			if e.obs != nil {
				e.obs.stallTicks.Inc()
			}
		}
		rt.tickOffered, rt.tickAccepted = 0, 0
		rt.throttle = 0.7*rt.throttle + 0.3*ratio + 0.02
		if rt.throttle > 1 {
			rt.throttle = 1
		}
		if rt.throttle < 0.02 {
			rt.throttle = 0.02
		}

		// Micro-batch: while the materialized backlog (current batch plus
		// the previous batch still shuffling) exceeds what the NIC can move
		// in two batch intervals, stop pulling — the stage cannot keep up
		// (Prompt's synchronous materialization backpressure).
		if e.cfg.Profile.MicroBatch {
			allowance := 2 * e.net.Bandwidth() * e.cfg.Profile.BatchInterval.Seconds()
			if rt.drainBytes+rt.heldBytes > allowance {
				rt.offered += rt.rate * dt.Seconds()
				return
			}
		}

		eff := rt.rate * rt.throttle
		want := eff*dt.Seconds()/e.cfg.TupleWeight + rt.carry
		n = int(want)
		rt.carry = want - float64(n)
		rt.offered += eff * dt.Seconds()
		if n == 0 {
			return
		}

		// Source CPU: generation cost. If the node is CPU-starved the grant
		// shrinks and we generate fewer concrete tuples.
		genNeed := e.cfg.Cost.GenCPU * e.cfg.TupleWeight * float64(n)
		if e.cfg.Profile.MicroBatch {
			genNeed += e.cfg.Cost.BatchCPU * e.cfg.TupleWeight * float64(n)
		}
		if g := cpu.Take(genNeed); g < genNeed {
			n = int(float64(n) * g / genNeed)
			if n == 0 {
				return
			}
		}
	}

	// Per-tick buckets. Non-shared: one per (class, slot). Shared: one
	// per slot, with per-tuple class bitmasks. Dense slice indexing
	// replaces the per-tuple map lookups that used to dominate the
	// router profile; the entries come from the engine free list with
	// their tuple-slice capacity intact, so a steady-state tick
	// allocates nothing here.
	nb := e.cfg.NumPartitions
	if !e.cfg.Shared {
		nb = len(plan.classes) * e.cfg.NumPartitions
	}
	if cap(rt.buckets) < nb {
		rt.buckets = make([]*entry, nb)
	}
	rt.buckets = rt.buckets[:nb]
	rt.usedKeys = rt.usedKeys[:0]

	begin := e.clock.Add(-dt)
	step := vtime.Duration(int64(dt) / int64(n))

	// Lane-layout policy: exact windows and micro-batch profiles need
	// per-row lanes (concrete state / row-granular drain splitting);
	// everything else rides the folded classRun layout, where slots
	// meter and fold whole runs instead of rows.
	nc := len(plan.classes)
	rowLanes := e.cfg.ExactWindows || e.cfg.Profile.MicroBatch
	numCols := def.NumCols
	laneCols := 0
	if e.cfg.ExactWindows {
		laneCols = numCols
	}
	shared := e.cfg.Shared
	sampling := e.sampler != nil

	// Block size: scratch is strided by bs, blocks carry at most bs rows.
	bs := e.cfg.BatchSize
	if bs <= 0 {
		bs = 64
	}
	if bs > n {
		bs = n
	}
	if cap(rt.keyScr) < bs {
		rt.keyScr = make([]uint64, bs)
	}
	rt.keyScr = rt.keyScr[:bs]
	if need := nc * bs; cap(rt.slotScr) < need {
		rt.slotScr = make([]int32, need)
		rt.grpScr = make([]int32, need)
	}
	rt.slotScr = rt.slotScr[:nc*bs]
	rt.grpScr = rt.grpScr[:nc*bs]
	if cap(rt.accScr) < bs {
		rt.accScr = make([]uint64, bs)
	}
	rt.accScr = rt.accScr[:bs]
	ng := e.cfg.NumGroups
	np := e.cfg.NumPartitions
	if !rowLanes {
		if ncg := nc * ng; len(rt.runAcc) < ncg {
			rt.runAcc = make([]runCell, ncg)
		} else {
			cells := rt.runAcc[:ncg]
			for i := range cells {
				cells[i] = runCell{}
			}
		}
	}
	if shared {
		if len(rt.slotN) < np {
			rt.slotN = make([]int32, np)
			rt.slotXQ = make([]int32, np)
		} else {
			for i := 0; i < np; i++ {
				rt.slotN[i] = 0
				rt.slotXQ[i] = 0
			}
		}
	}
	if cap(rt.memCnt) < nc {
		rt.memCnt = make([]int32, nc)
		rt.accCnt = make([]int64, nc)
	}
	rt.memCnt = rt.memCnt[:nc]
	rt.accCnt = rt.accCnt[:nc]
	hasFilter, checkAcc := false, false
	for ci, rc := range plan.classes {
		rt.memCnt[ci] = int32(len(rc.members))
		rt.accCnt[ci] = 0
		if rc.filter != nil {
			hasFilter, checkAcc = true, true
		} else if rc.sel < 1 {
			checkAcc = true
		}
	}

	// Identical-key class dedup (folded layouts): two classes that key
	// on the same columns, accept every row, and route groups to the
	// same slots accumulate byte-identical per-(class, group) run cells
	// — a common shape when several queries aggregate and join on one
	// partitioning column. Classify once per twin set; the flat cells
	// (and, in shared mode, the per-block slot lane) are copied instead
	// of re-hashed. Disabled while sampling: the sampler stages the
	// per-class group lane, which a skipped pass would leave stale.
	if cap(rt.dupOf) < nc {
		rt.dupOf = make([]int32, nc)
	}
	rt.dupOf = rt.dupOf[:nc]
	for ci := range rt.dupOf {
		rt.dupOf[ci] = -1
	}
	if !rowLanes && !sampling && nc > 1 {
		slotLane := shared // merge pass reads the slot lane per class
		for ci, rc := range plan.classes {
			if rc.filter != nil || rc.sel < 1 {
				continue
			}
		candidates:
			for cj := 0; cj < ci; cj++ {
				pc := plan.classes[cj]
				if pc.filter != nil || pc.sel < 1 || rt.dupOf[cj] >= 0 {
					continue
				}
				if len(rc.key) != len(pc.key) {
					continue
				}
				for i := range rc.key {
					if rc.key[i] != pc.key[i] {
						continue candidates
					}
				}
				if slotLane {
					if len(rc.route) != len(pc.route) {
						continue
					}
					for g := range rc.route {
						if rc.route[g] != pc.route[g] {
							continue candidates
						}
					}
				}
				rt.dupOf[ci] = int32(cj)
				break
			}
		}
	}

	src := rt.src
	if rt.feed != nil {
		src = &rt.fc
	}
	rt.rows += int64(n)
	for lo := 0; lo < n; lo += bs {
		m := n - lo
		if m > bs {
			m = bs
		}
		blk := &rt.blk
		blk.Resize(m, numCols)
		ts := blk.TS
		t := begin.Add(vtime.Duration(lo) * step)
		for r := 0; r < m; r++ {
			ts[r] = t
			t = t.Add(step)
		}
		src.NextBlock(blk, 0, m)

		// Acceptance and sampling prepass — row-major, classes ascending
		// within a row: exactly the RNG draw order of tuple-at-a-time
		// execution, so outputs are byte-identical at every batch size.
		// Skipped entirely when every class accepts everything and no
		// sampler is attached.
		rt.sampScr = rt.sampScr[:0]
		if checkAcc || sampling {
			tt := &rt.shim
			for r := 0; r < m; r++ {
				bits := ^uint64(0)
				if checkAcc {
					bits = 0
					if hasFilter {
						blk.RowTuple(tt, r, numCols)
					}
					for ci, rc := range plan.classes {
						ok := true
						if rc.filter != nil {
							ok = rc.filter(tt)
						} else if rc.sel < 1 {
							ok = rt.rng.Float64() < rc.sel
						}
						if ok {
							bits |= 1 << uint(ci)
						}
					}
				}
				rt.accScr[r] = bits
				if sampling && rt.gate.next() {
					rt.sampScr = append(rt.sampScr, int32(r))
				}
			}
		}

		// Classification: one pass per route class over the whole block —
		// one KeyOfBlock sweep, then a scatter. Folded layouts only bump
		// the flat per-(class, group) run accumulators; row-lane layouts
		// record slots for the shared merge pass below or scatter rows
		// straight into non-shared buckets.
		for ci, rc := range plan.classes {
			bit := uint64(1) << uint(ci)
			sl := rt.slotScr[ci*bs : ci*bs+m]
			if dj := int(rt.dupOf[ci]); dj >= 0 {
				// Twin of an earlier class this tick: reuse its slot
				// lane; the run cells are copied once at tick end.
				if shared && nc > 1 {
					copy(sl, rt.slotScr[dj*bs:dj*bs+m])
				}
				continue
			}
			gr := rt.grpScr[ci*bs : ci*bs+m]
			route := rc.route
			acc := int64(0)
			switch {
			case !rowLanes:
				// The merge pass only needs per-row slots when distinct
				// classes could target distinct slots of one row.
				needSlot := shared && nc > 1
				base := ci * ng
				lo64 := int64(lo)
				runAcc := rt.runAcc
				if mask := e.space.Mask(); mask != 0 && !sampling {
					// Power-of-two group count: fold the hash into the
					// accumulate loop — no group lane round trip. Not
					// while sampling: the sampler stages the per-class
					// group lane, which this path does not fill.
					// cells is exactly the group space of this class, so
					// len(cells)-1 == mask and masking with it both picks
					// the group and proves the index in range (no bounds
					// check in the hot loop).
					var keys []uint64
					if len(rc.key) == 1 {
						// A single-column key IS the raw lane —
						// uint64(x) of an int64 is a bit
						// reinterpretation — so fold the column in
						// place instead of copying it through the key
						// scratch.
						col := blk.Col[rc.key[0]]
						keys = unsafe.Slice((*uint64)(unsafe.Pointer(&col[0])), m)
					} else {
						rc.key.KeyOfBlock(blk, 0, m, rt.keyScr)
						keys = rt.keyScr[:m]
					}
					cells := runAcc[base : base+ng]
					switch {
					case !checkAcc && !needSlot:
						// Every row accepted, slot lane unused (single
						// class or non-shared): the tightest loop.
						acc = int64(m)
						gi := lo64
						for _, k := range keys {
							c := &cells[int(keyspace.Mix64(k))&(len(cells)-1)]
							c.k++
							c.si += gi
							c.si2 += gi * gi
							gi++
						}
					case !checkAcc:
						acc = int64(m)
						for r, k := range keys {
							g := int(keyspace.Mix64(k)) & (len(cells) - 1)
							sl[r] = int32(route[g])
							gi := lo64 + int64(r)
							c := &cells[g]
							c.k++
							c.si += gi
							c.si2 += gi * gi
						}
					default:
						for r, k := range keys {
							if rt.accScr[r]&bit == 0 {
								if needSlot {
									sl[r] = -1
								}
								continue
							}
							g := int(keyspace.Mix64(k)) & (len(cells) - 1)
							if needSlot {
								sl[r] = int32(route[g])
							}
							acc++
							gi := lo64 + int64(r)
							c := &cells[g]
							c.k++
							c.si += gi
							c.si2 += gi * gi
						}
					}
					rt.accCnt[ci] += acc
					continue
				}
				rc.key.KeyOfBlock(blk, 0, m, rt.keyScr)
				e.space.GroupsOfKeys(rt.keyScr[:m], gr)
				if !checkAcc {
					// Every row accepted: branch-free accumulate.
					acc = int64(m)
					for r := 0; r < m; r++ {
						g := int(gr[r])
						if needSlot {
							sl[r] = int32(route[g])
						}
						gi := lo64 + int64(r)
						c := &runAcc[base+g]
						c.k++
						c.si += gi
						c.si2 += gi * gi
					}
				} else {
					for r := 0; r < m; r++ {
						if rt.accScr[r]&bit == 0 {
							if needSlot {
								sl[r] = -1
							}
							continue
						}
						g := int(gr[r])
						if needSlot {
							sl[r] = int32(route[g])
						}
						acc++
						gi := lo64 + int64(r)
						c := &runAcc[base+g]
						c.k++
						c.si += gi
						c.si2 += gi * gi
					}
				}
			case shared:
				// Row lanes, shared: record routes only; the merge pass
				// dedups physical copies and fills the lanes.
				rc.key.KeyOfBlock(blk, 0, m, rt.keyScr)
				e.space.GroupsOfKeys(rt.keyScr[:m], gr)
				for r := 0; r < m; r++ {
					if checkAcc && rt.accScr[r]&bit == 0 {
						sl[r] = -1
						continue
					}
					sl[r] = int32(route[gr[r]])
					acc++
				}
			default:
				// Row lanes, non-shared: scatter rows straight into the
				// per-(class, slot) buckets.
				rc.key.KeyOfBlock(blk, 0, m, rt.keyScr)
				e.space.GroupsOfKeys(rt.keyScr[:m], gr)
				for r := 0; r < m; r++ {
					if checkAcc && rt.accScr[r]&bit == 0 {
						sl[r] = -1
						continue
					}
					g := keyspace.GroupID(gr[r])
					p := int(route[g])
					sl[r] = int32(p)
					acc++
					bk := ci*np + p
					b := rt.buckets[bk]
					if b == nil {
						b = e.newEntry()
						b.kind, b.stream, b.slot = entryData, rt.stream, p
						b.class, b.epoch, b.plan = rc, e.epoch, plan
						rt.buckets[bk] = b
						rt.usedKeys = append(rt.usedKeys, bk)
					}
					b.blk.TS = append(b.blk.TS, ts[r])
					for c := 0; c < laneCols; c++ {
						b.blk.Col[c] = append(b.blk.Col[c], blk.Col[c][r])
					}
					b.groups = append(b.groups, keyspace.GroupID(g))
					b.n++
				}
			}
			rt.accCnt[ci] += acc
		}

		// Shared merge pass: collect the distinct target slots across
		// classes per row; one physical copy per distinct slot (the green
		// tuples of Fig. 1c). Folded layouts only tally physical rows and
		// wire overhead into the flat per-slot counters (a single-class
		// stream needs no pass at all — flush derives both from the runs);
		// row-lane buckets also take the row, its class bitmask and its
		// per-class group lane.
		switch {
		case shared && !rowLanes && nc == 2 && !checkAcc:
			// Two classes, everything accepted — the common sharing pair.
			m0, m1 := rt.memCnt[0], rt.memCnt[1]
			sl0 := rt.slotScr[:m]
			sl1 := rt.slotScr[bs : bs+m]
			slotN, slotXQ := rt.slotN, rt.slotXQ
			for r := 0; r < m; r++ {
				p0, p1 := sl0[r], sl1[r]
				if p0 == p1 {
					slotN[p0]++
					slotXQ[p0] += m0 + m1 - 1
					continue
				}
				slotN[p0]++
				slotN[p1]++
				if m0 > 1 {
					slotXQ[p0] += m0 - 1
				}
				if m1 > 1 {
					slotXQ[p1] += m1 - 1
				}
			}
		case shared && !rowLanes && nc > 1:
			var slotTmp [maxClassesPerStream]int32
			var memTmp [maxClassesPerStream]int32
			for r := 0; r < m; r++ {
				nd := 0
				for ci := 0; ci < nc; ci++ {
					p := rt.slotScr[ci*bs+r]
					if p < 0 {
						continue
					}
					found := -1
					for j := 0; j < nd; j++ {
						if slotTmp[j] == p {
							found = j
							break
						}
					}
					if found < 0 {
						slotTmp[nd] = p
						memTmp[nd] = rt.memCnt[ci]
						nd++
					} else {
						memTmp[found] += rt.memCnt[ci]
					}
				}
				for j := 0; j < nd; j++ {
					p := slotTmp[j]
					rt.slotN[p]++
					if q := int(memTmp[j]); q > 1 {
						// The query-set encoding adds a few bytes per
						// extra query served by this copy.
						rt.slotXQ[p] += int32(q - 1)
					}
				}
			}
		case shared && rowLanes:
			var slotTmp [maxClassesPerStream]int32
			var bitTmp [maxClassesPerStream]uint64
			var memTmp [maxClassesPerStream]int32
			for r := 0; r < m; r++ {
				nd := 0
				for ci := 0; ci < nc; ci++ {
					p := rt.slotScr[ci*bs+r]
					if p < 0 {
						continue
					}
					found := -1
					for j := 0; j < nd; j++ {
						if slotTmp[j] == p {
							found = j
							break
						}
					}
					if found < 0 {
						slotTmp[nd] = p
						bitTmp[nd] = 1 << uint(ci)
						memTmp[nd] = rt.memCnt[ci]
						nd++
					} else {
						bitTmp[found] |= 1 << uint(ci)
						memTmp[found] += rt.memCnt[ci]
					}
					bk := int(p)
					b := rt.buckets[bk]
					if b == nil {
						b = e.newEntry()
						b.kind, b.stream, b.shared = entryData, rt.stream, true
						b.slot, b.epoch, b.plan = bk, e.epoch, plan
						rt.buckets[bk] = b
						rt.usedKeys = append(rt.usedKeys, bk)
					}
					b.groups = append(b.groups, keyspace.GroupID(rt.grpScr[ci*bs+r]))
				}
				for j := 0; j < nd; j++ {
					b := rt.buckets[slotTmp[j]]
					b.n++
					if q := int(memTmp[j]); q > 1 {
						b.extraQ += q - 1
					}
					b.blk.TS = append(b.blk.TS, ts[r])
					for c := 0; c < laneCols; c++ {
						b.blk.Col[c] = append(b.blk.Col[c], blk.Col[c][r])
					}
					b.classBits = append(b.classBits, bitTmp[j])
				}
			}
		}

		// Stage this block's samples for barrier B: the sampler is
		// engine-global, so the call itself must wait for the sequential
		// merge. Row-major, classes ascending — batch-invariant.
		for _, sr := range rt.sampScr {
			r := int(sr)
			bits := rt.accScr[r]
			ns := 0
			for ci := 0; ci < nc; ci++ {
				if bits&(1<<uint(ci)) == 0 {
					continue
				}
				rt.sampClass = append(rt.sampClass, ci)
				rt.sampGroup = append(rt.sampGroup, keyspace.GroupID(rt.grpScr[ci*bs+r]))
				ns++
			}
			if ns > 0 {
				rt.sampTS = append(rt.sampTS, ts[r])
				rt.sampLen = append(rt.sampLen, ns)
			}
		}
	}
	if rt.feed != nil {
		rt.releaseFeed()
	}

	// Materialize the folded buckets: scan the run accumulators in
	// (class, group) order — the canonical order consumers fold in — so
	// every entry's run list is born sorted, independent of how the tick
	// was blocked, with no per-entry sort pass.
	if !rowLanes {
		// Settle the twin classes skipped by the dedup: their flat run
		// cells are the root class's, copied once per tick. Ascending
		// order guarantees the root (always a lower index) is final.
		for ci := range plan.classes {
			if dj := int(rt.dupOf[ci]); dj >= 0 {
				copy(rt.runAcc[ci*ng:ci*ng+ng], rt.runAcc[dj*ng:dj*ng+ng])
				rt.accCnt[ci] = rt.accCnt[dj]
			}
		}
		for ci, rc := range plan.classes {
			base := ci * ng
			route := rc.route
			for g := 0; g < ng; g++ {
				cell := rt.runAcc[base+g]
				if cell.k == 0 {
					continue
				}
				p := int(route[g])
				bk := p
				if !shared {
					bk = ci*np + p
				}
				b := rt.buckets[bk]
				if b == nil {
					b = e.newEntry()
					b.kind, b.stream, b.slot = entryData, rt.stream, p
					b.epoch, b.plan = e.epoch, plan
					if shared {
						b.shared = true
					} else {
						b.class = rc
					}
					rt.buckets[bk] = b
					rt.usedKeys = append(rt.usedKeys, bk)
				}
				b.runs = append(b.runs, classRun{
					class: int32(ci), group: keyspace.GroupID(g),
					k: cell.k, si: cell.si, si2: cell.si2,
				})
				if !shared {
					b.n += int(cell.k)
				}
			}
		}
		if shared {
			if nc == 1 {
				// Single class: every run row is its own physical copy,
				// and every copy serves the same member set.
				mem0 := int(rt.memCnt[0])
				for _, bk := range rt.usedKeys {
					b := rt.buckets[bk]
					n := 0
					for i := range b.runs {
						n += int(b.runs[i].k)
					}
					b.n = n
					if mem0 > 1 {
						b.extraQ = (mem0 - 1) * n
					}
				}
			} else {
				for _, bk := range rt.usedKeys {
					b := rt.buckets[bk]
					b.n = int(rt.slotN[bk])
					b.extraQ = int(rt.slotXQ[bk])
				}
			}
		}
	}

	// Routing CPU and ground-truth sharing accounting, folded once per
	// tick from the integer per-class acceptance counts: how many copies
	// the queries demanded vs how many physically ship (Fig. 1d vs 1e —
	// the 16-vs-10 tuples of the paper's example).
	routeAcc, demand := int64(0), int64(0)
	for ci := range plan.classes {
		routeAcc += rt.accCnt[ci]
		demand += rt.accCnt[ci] * int64(rt.memCnt[ci])
	}
	cpu.Take(e.cfg.Cost.RouteCPU * e.cfg.TupleWeight * float64(routeAcc))
	if shared {
		phys := 0
		for _, k := range rt.usedKeys {
			phys += rt.buckets[k].n
		}
		e.metrics.recordSharing(int(rt.node), float64(demand)*e.cfg.TupleWeight, float64(phys)*e.cfg.TupleWeight)
	}

	// Materialize pending sends; tuple-at-a-time ships immediately,
	// micro-batch holds them for the boundary. Deterministic ship
	// order: bucket fill order must not leak into network acceptance
	// decisions, so the used keys are sorted (slot order in shared
	// mode, class-major in non-shared mode — the same order the map
	// version produced).
	sort.Ints(rt.usedKeys)
	if shared {
		for _, k := range rt.usedKeys {
			en := rt.buckets[k]
			rt.buckets[k] = nil
			en.tsBegin, en.tsStep = begin, step
			// One physical copy; extraQ carries the accumulated
			// query-set encoding overhead.
			bytesPer := def.BytesPerTuple * e.cfg.TupleWeight
			if en.extraQ > 0 && en.n > 0 {
				bytesPer += float64(en.extraQ) * e.cfg.Cost.SharedOverheadBytes * e.cfg.TupleWeight / float64(en.n)
			}
			rt.emit(e, nr, pendingSend{en: en, copies: 1, bytesPer: bytesPer})
		}
	} else {
		for _, k := range rt.usedKeys {
			en := rt.buckets[k]
			rt.buckets[k] = nil
			en.tsBegin, en.tsStep = begin, step
			rc := en.class
			// Every member query ships its own copy (Fig. 1a/1b) —
			// except under AJoin's join-group batching, which
			// eliminates part of the duplicate traffic of identical
			// join queries.
			m := float64(len(rc.members))
			if frac := e.cfg.Profile.JoinDataShareFrac; frac > 0 && m > 1 && rc.allJoins() {
				m = 1 + (1-frac)*(m-1)
			}
			rt.emit(e, nr, pendingSend{en: en, copies: m, bytesPer: def.BytesPerTuple * e.cfg.TupleWeight * m})
		}
	}
}

// emit routes one materialized send: tuple-at-a-time profiles stage it
// for barrier B, micro-batch profiles hold it for the batch boundary.
func (rt *routerTask) emit(e *Engine, nr *nodeRun, ps pendingSend) {
	if e.cfg.Profile.MicroBatch {
		rt.held = append(rt.held, ps)
		rt.heldBytes += ps.bytesPer * float64(ps.en.n)
		return
	}
	rt.stage(e, nr, ps)
}

// stage sizes one send during the router phase: serialization CPU is
// taken from the node-local meter against the provisional link
// estimate — authoritative link state minus this node's own
// provisional claims — so no CPU is burned on bytes the network would
// obviously refuse. The estimate ignores other nodes' staged sends;
// commit settles true acceptance at barrier B. The staged fraction is
// therefore deterministic: it reads link state frozen for the phase
// plus claims accumulated in this node's fixed task order.
func (rt *routerTask) stage(e *Engine, nr *nodeRun, ps pendingSend) {
	en := ps.en
	sendBytes := ps.bytesPer * float64(en.n)
	dstNode := e.placement.PartitionNode(en.slot)

	if e.nodeIsDown(dstNode) {
		// The slot's node crashed: everything routed at it is lost until
		// a reconfiguration moves its key groups. The bytes still count
		// as offered-but-unaccepted, so the source throttle backs off
		// while the system runs degraded — the sustained throughput dip
		// the recovery experiment measures.
		rt.tickOffered += sendBytes
		nr.lostBytes += sendBytes
		e.recycle(en)
		return
	}

	f := 1.0
	if dstNode != rt.node {
		// Only remote traffic feeds the throttle: shared-memory
		// handoffs cannot be refused.
		rt.tickOffered += sendBytes
		avail := e.net.EstimateAvailable(rt.node, dstNode, nr.provEg, nr.provIn[dstNode])
		if room := e.sendRoom(dstNode) - nr.provIn[dstNode]; room < avail {
			avail = room
		}
		if avail < 0 {
			avail = 0
		}
		if sendBytes > avail {
			f = avail / sendBytes
		}
		// Serialization CPU sized to the estimated acceptable share.
		serNeed := e.cfg.Cost.SerCPU * e.cfg.TupleWeight * float64(en.n) * ps.copies * f
		if serNeed > 0 {
			if g := e.cluster.CPU(rt.node).Take(serNeed); g < serNeed {
				f *= g / serNeed
			}
		}
		nr.provEg += sendBytes * f
		nr.provIn[dstNode] += sendBytes * f
	}
	ps.f = f
	rt.pending = append(rt.pending, ps)
}

// commit settles one staged send at barrier B: the staged fraction is
// re-clamped downward against authoritative link headroom (several
// nodes' stages may have oversubscribed one ingress link), the bytes
// hit the network, and the entry rides its edge. Runs in global task
// order, so contention between nodes for one link resolves the same
// way every run.
func (rt *routerTask) commit(e *Engine, ps *pendingSend) {
	en := ps.en
	f := ps.f
	sendBytes := ps.bytesPer * float64(en.n)
	dstNode := e.placement.PartitionNode(en.slot)
	if dstNode != rt.node && f > 0 {
		avail := e.net.Available(rt.node, dstNode)
		if room := e.sendRoom(dstNode); room < avail {
			avail = room
		}
		if avail < 0 {
			avail = 0
		}
		if sendBytes*f > avail {
			f = avail / sendBytes
		}
	}
	acc, delay := e.net.Send(rt.node, dstNode, sendBytes*f)
	if offered := sendBytes * f; offered > 0 {
		f *= acc / offered
	}
	en.scale = f
	en.copies = ps.copies
	en.bytes = sendBytes * f
	en.arriveAt = e.clock.Add(delay)
	en.watermark = e.clock.Add(-e.cfg.WatermarkLag)
	rt.accepted += f * e.cfg.TupleWeight * float64(en.n) * ps.copies
	if dstNode != rt.node {
		rt.tickAccepted += sendBytes * f
	}
	e.enqueue(rt, en)
}

// deliverSamples hands this task's staged tuple samples to the
// engine's sampler, in the order they were drawn, and resets the
// staging buffers (capacity kept).
func (rt *routerTask) deliverSamples(e *Engine) {
	if len(rt.sampLen) == 0 {
		return
	}
	if e.sampler != nil {
		off := 0
		for i, ns := range rt.sampLen {
			e.sampler.Sample(SampleVec{
				Stream:  rt.stream,
				Time:    rt.sampTS[i],
				Classes: rt.sampClass[off : off+ns],
				Groups:  rt.sampGroup[off : off+ns],
			})
			off += ns
		}
	}
	rt.sampClass = rt.sampClass[:0]
	rt.sampGroup = rt.sampGroup[:0]
	rt.sampTS = rt.sampTS[:0]
	rt.sampLen = rt.sampLen[:0]
}

// ship performs serialization CPU and network accounting for one entry
// and enqueues it on its slot edge. Serialization is sized to what the
// network can currently accept (no CPU is burned on bytes the queues
// would refuse); any remaining shortfall scales the entry's weight
// down, and the acceptance ratio feeds the source throttle. Used by
// the micro-batch drain path, which runs sequentially at barrier B
// against authoritative link state, so no stage/commit split needed.
func (rt *routerTask) ship(e *Engine, ps pendingSend) {
	en := ps.en
	cpu := e.cluster.CPU(rt.node)
	sendBytes := ps.bytesPer * float64(en.n)
	dstNode := e.placement.PartitionNode(en.slot)

	if e.nodeIsDown(dstNode) {
		// The slot's node crashed: everything routed at it is lost until
		// a reconfiguration moves its key groups. The bytes still count
		// as offered-but-unaccepted, so the source throttle backs off
		// while the system runs degraded — the sustained throughput dip
		// the recovery experiment measures.
		rt.tickOffered += sendBytes
		e.lostBytes += sendBytes
		e.recycle(en)
		return
	}

	f := 1.0
	if dstNode != rt.node {
		// Only remote traffic feeds the throttle: shared-memory
		// handoffs cannot be refused.
		rt.tickOffered += sendBytes
		// Size the send to the network's headroom and the receiver's
		// ingress buffer first…
		avail := e.net.Available(rt.node, dstNode)
		if room := e.sendRoom(dstNode); room < avail {
			avail = room
		}
		if sendBytes > avail {
			f = avail / sendBytes
		}
		// …then to the serialization CPU actually available.
		serNeed := e.cfg.Cost.SerCPU * e.cfg.TupleWeight * float64(en.n) * ps.copies * f
		if serNeed > 0 {
			if g := cpu.Take(serNeed); g < serNeed {
				f *= g / serNeed
			}
		}
	}
	acc, delay := e.net.Send(rt.node, dstNode, sendBytes*f)
	if offered := sendBytes * f; offered > 0 {
		f *= acc / offered
	}
	en.scale = f
	en.copies = ps.copies
	en.bytes = sendBytes * f
	en.arriveAt = e.clock.Add(delay)
	en.watermark = e.clock.Add(-e.cfg.WatermarkLag)
	rt.accepted += f * e.cfg.TupleWeight * float64(en.n) * ps.copies
	if dstNode != rt.node {
		rt.tickAccepted += sendBytes * f
	}
	e.enqueue(rt, en)
}

// flushHeld moves the batch buffered at a micro-batch boundary into
// the drain queue; shipDraining paces it onto the network.
func (rt *routerTask) flushHeld(e *Engine) {
	rt.draining = append(rt.draining, rt.held...)
	rt.drainBytes += rt.heldBytes
	rt.held = rt.held[:0]
	rt.heldBytes = 0
}

// shipDraining ships as much of the materialized batch as the network
// will take this tick. Entries larger than the current headroom are
// split so oversized buckets cannot wedge the drain; the remainder
// waits (stage output is persisted, never dropped).
func (rt *routerTask) shipDraining(e *Engine) {
	i := 0
	for ; i < len(rt.draining); i++ {
		ps := rt.draining[i]
		bytes := ps.bytesPer * float64(ps.en.n)
		dst := e.placement.PartitionNode(ps.en.slot)
		// A dead destination must not wedge the drain behind its zero
		// headroom: ship() destroys the send and the drain moves on.
		if dst != rt.node && !e.nodeIsDown(dst) {
			avail := e.net.Available(rt.node, dst)
			if room := e.sendRoom(dst); room < avail {
				avail = room
			}
			if avail < bytes {
				// Ship the head that fits; keep the tail for next tick.
				k := int(avail / ps.bytesPer)
				if k > 0 {
					head := splitSend(&rt.draining[i], k)
					rt.ship(e, head)
					rt.drainBytes -= head.bytesPer * float64(head.en.n)
				}
				break
			}
		}
		rt.ship(e, ps)
		rt.drainBytes -= bytes
	}
	if i > 0 {
		rt.draining = append(rt.draining[:0], rt.draining[i:]...)
	}
	if len(rt.draining) == 0 && rt.drainBytes != 0 {
		rt.drainBytes = 0 // clamp float residue
	}
}

// splitSend carves the first k rows of a pending send into a new send,
// leaving the remainder in place. Only micro-batch drains split, so the
// entry is always in row-lane layout: the block lanes and the per-row
// metadata (class bits, groups) split alongside. In shared mode the
// groups lane holds one element per (row, class), so its split point is
// the popcount sum of the head's class bitmasks.
func splitSend(ps *pendingSend, k int) pendingSend {
	src := ps.en
	head := *src
	head.blk.TS = src.blk.TS[:k:k]
	src.blk.TS = src.blk.TS[k:]
	for c := range src.blk.Col {
		if len(src.blk.Col[c]) > 0 {
			head.blk.Col[c] = src.blk.Col[c][:k:k]
			src.blk.Col[c] = src.blk.Col[c][k:]
		}
	}
	head.n, src.n = k, src.n-k
	gk := k
	if src.shared && src.classBits != nil {
		gk = 0
		for i := 0; i < k; i++ {
			gk += bits.OnesCount64(src.classBits[i])
		}
	}
	if src.classBits != nil {
		head.classBits = src.classBits[:k:k]
		src.classBits = src.classBits[k:]
	}
	if src.groups != nil {
		head.groups = src.groups[:gk:gk]
		src.groups = src.groups[gk:]
	}
	return pendingSend{en: &head, copies: ps.copies, bytesPer: ps.bytesPer}
}

// heartbeat advances watermarks on every edge of this task, so idle
// edges do not stall downstream window closing.
func (rt *routerTask) heartbeat(e *Engine) {
	wm := e.clock.Add(-e.cfg.WatermarkLag)
	for s := 0; s < e.cfg.NumPartitions; s++ {
		en := e.newEntry()
		en.kind = entryHeartbeat
		en.slot = s
		en.arriveAt = e.clock.Add(e.net.Config().LatMem)
		en.watermark = wm
		en.epoch = e.epoch
		e.enqueue(rt, en)
	}
}

// allJoins reports whether every member of the class is a join query.
func (rc *routeClass) allJoins() bool {
	for _, m := range rc.members {
		if m.q.spec.Kind != OpJoin {
			return false
		}
	}
	return true
}

// SampleVec is one sampled tuple's key-group vector: for every route
// class that accepted the tuple, the key group it falls into. The stats
// collector derives per-(query, group) cardinalities and cross-query
// overlap (the SharedWith triangles of Fig. 2a) from these vectors.
type SampleVec struct {
	Stream  StreamID
	Time    vtime.Time
	Classes []int // route-class ids, parallel to Groups; valid only during the call
	Groups  []keyspace.GroupID
}

// Sampler consumes routed-tuple samples. Implementations must copy the
// slices if they retain them.
type Sampler interface {
	Sample(v SampleVec)
}

// sampleGate spaces samples deterministically: one sample every N
// concrete tuples.
type sampleGate struct {
	every int
	n     int
}

func (s *sampleGate) next() bool {
	if s.every <= 0 {
		return false
	}
	s.n++
	if s.n >= s.every {
		s.n = 0
		return true
	}
	return false
}
