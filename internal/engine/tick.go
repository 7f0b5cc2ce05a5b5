package engine

import (
	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file is the tick pipeline. One tick runs five stages in a fixed
// order, and that order is what defines every output bit:
//
//	prologue  clock, meter/link refills, batch boundary, deferred
//	          reconfigurations
//	slots     nodes in ID order drain their partition slots, each
//	          node's slots in the rotated order; cross-node effects are
//	          staged per slot
//	barrier A staged slot effects fold in rotated slot-ID order:
//	          marker alignment counts, checkpoint captures,
//	          state-movement dispatch (engine RNG + network), stray
//	          reroutes, exact results
//	routers   nodes in ID order generate, classify and bucket their
//	          source tasks' tuples; link transfers are sized against a
//	          provisional per-node estimate (provEg/provIn)
//	barrier B staged sends commit on the real network in task-ID
//	          order, samples deliver, micro-batch drains pace out,
//	          heartbeats flow
//
// Metrics keep per-node partials (see metrics.go) because their float
// fold order depends on them.

// nodeRun groups the per-node tick state: the node's slots and router
// tasks in ascending ID order, and the router-phase staging that
// barrier B folds.
type nodeRun struct {
	id    cluster.NodeID
	slots []*slot       // this node's partition slots, ascending slot ID
	tasks []*routerTask // this node's router tasks, ascending task index

	// Router-phase staging, reset each tick.
	lostBytes float64   // sends destroyed at dead destinations, folded at barrier B
	provEg    float64   // provisional egress bytes claimed by staged sends
	provIn    []float64 // provisional ingress bytes claimed, per destination node
}

// newEntry returns a zeroed entry from the engine's free list.
func (e *Engine) newEntry() *entry {
	if n := len(e.entryFree); n > 0 {
		en := e.entryFree[n-1]
		e.entryFree = e.entryFree[:n-1]
		return en
	}
	return &entry{}
}

// recycle returns a fully consumed entry to the free list. The caller
// must guarantee nothing aliases the entry anymore; payload slices are
// truncated (not freed) so their capacity is reused. Entries produced
// by splitSend share backing arrays with their remainder, but the
// split caps lengths so reuse through the truncated slices can never
// touch the other half.
func (e *Engine) recycle(en *entry) {
	// Field-by-field reset: entry embeds the TupleBlock's 14 slice
	// headers, so a whole-struct literal assignment would copy ~half a
	// kilobyte through duffcopy on every recycled entry — a measurable
	// slice of the tick on the hot path. TestRecycleResetsEveryField
	// walks the struct by reflection, so a field added to entry without
	// a reset here fails the suite instead of leaking stale state.
	en.kind, en.stream, en.slot = 0, 0, 0
	en.arriveAt, en.watermark, en.epoch = 0, 0, 0
	en.bytes = 0
	en.plan, en.class, en.shared, en.n = nil, nil, false, 0
	blk := &en.blk
	blk.TS = blk.TS[:0]
	for c := range blk.Col {
		if blk.Col[c] != nil {
			blk.Col[c] = blk.Col[c][:0]
		}
	}
	blk.W = blk.W[:0]
	en.classBits = en.classBits[:0]
	en.groups = en.groups[:0]
	en.runs = en.runs[:0]
	en.tsBegin, en.tsStep = 0, 0
	en.extraQ, en.copies, en.scale = 0, 0, 0
	en.marker = nil
	en.stQuery, en.stGroup, en.stWeight, en.stStagedW = 0, 0, 0, 0
	en.stAgg = en.stAgg[:0]
	en.stJoin[0] = en.stJoin[0][:0]
	en.stJoin[1] = en.stJoin[1][:0]
	e.entryFree = append(e.entryFree, en)
}

// evtKind tags one staged cross-node effect of the slot phase.
type evtKind uint8

const (
	evtAligned     evtKind = iota // slot aligned on a marker epoch
	evtJIT                        // post-alignment compile burst (obs event)
	evtExtract                    // moved-away state ready for dispatch
	evtStray                      // iterator-guard reroute of a stray tuple
	evtResult                     // exact-mode window result emission
	evtCkptCapture                // slot's checkpoint capture fragments
	evtCkptMerge                  // landed moved state folding into a capture
)

// slotEvt is one staged effect. A flat tagged struct (not an
// interface) so the per-slot event buffers recycle their backing
// arrays without boxing allocations on the hot path.
type slotEvt struct {
	kind evtKind

	epoch int64 // evtAligned

	compiles int            // evtJIT
	dur      vtime.Duration // evtJIT

	en *entry // evtExtract: the extracted state entry awaiting dispatch

	qi   int              // evtStray
	g    keyspace.GroupID // evtStray
	w    float64          // evtStray
	side int              // evtStray
	t    Tuple            // evtStray

	res AggResult // evtResult

	frags []CkptGroup // evtCkptCapture: per-(query,group) fragments
	pend  []pendKey   // evtCkptCapture: groups pending in-flight state

	key  pendKey      // evtCkptMerge
	agg  []AggPartial // evtCkptMerge (copied: entries are recycled)
	join [2][]Tuple   // evtCkptMerge (copied)
}

// slotFx is a slot's per-tick staging buffer. Appended during the slot
// phase, drained by the barrier-A fold.
type slotFx struct {
	events  []slotEvt
	markers int // marker entries consumed (markersInFlight bookkeeping)

	// outstanding is the staged delta to the engine's outstanding-state
	// counter (mergeState decrements).
	outstanding int

	// entries counts deliveries consumed this tick — the per-node work
	// signal behind the saspar_engine_shard_work gauges.
	entries int
}

// stage appends one effect and returns a pointer to fill in.
func (fx *slotFx) stage(kind evtKind) *slotEvt {
	fx.events = append(fx.events, slotEvt{kind: kind})
	return &fx.events[len(fx.events)-1]
}

// nodeIdle reports whether a node sits out the tick's phases: a
// crashed node consumes and produces nothing, and a drained node was
// emptied before it left.
func (e *Engine) nodeIdle(n cluster.NodeID) bool {
	return e.nodeIsDown(n) || e.nodeRetired(n)
}

// slotPhase drains one node's partition slots. The visit order is the
// global fairness rotation restricted to this node: slots with id >=
// off first, then the wrap-around, so whichever slot leads the claim
// on the node's CPU meter rotates tick by tick.
func (e *Engine) slotPhase(nr *nodeRun, off int) {
	k := len(nr.slots)
	if k == 0 || e.nodeIdle(nr.id) {
		return
	}
	start := 0
	for start < k && nr.slots[start].id < off {
		start++
	}
	for i := 0; i < k; i++ {
		nr.slots[(start+i)%k].process(e)
	}
}

// routerPhase runs one node's source tasks: throttle update, tuple
// generation, classification, bucketing, and provisional link sizing.
// All network mutation is deferred to barrier B.
func (e *Engine) routerPhase(nr *nodeRun, dt vtime.Duration) {
	if e.nodeIdle(nr.id) {
		return
	}
	nr.provEg = 0
	for i := range nr.provIn {
		nr.provIn[i] = 0
	}
	for _, rt := range nr.tasks {
		rt.routeTick(e, nr, dt)
	}
}

// foldSlotPhase is barrier A: staged slot effects apply in rotated
// slot-ID order, so the engine RNG draw sequence and the shared network
// budget consumption are a pure function of virtual time.
func (e *Engine) foldSlotPhase(off int) {
	n := len(e.slots)
	for i := 0; i < n; i++ {
		s := e.slots[(i+off)%n]
		fx := &s.fx
		if fx.markers > 0 {
			e.markersInFlight -= fx.markers
			fx.markers = 0
		}
		if fx.outstanding != 0 {
			e.outstandingState += fx.outstanding
			fx.outstanding = 0
		}
		if e.nodeWork != nil {
			e.nodeWork[s.node] += fx.entries
		}
		fx.entries = 0
		for j := range fx.events {
			ev := &fx.events[j]
			switch ev.kind {
			case evtAligned:
				e.alignedSlots[ev.epoch]++
			case evtJIT:
				if e.obs != nil {
					e.obs.emitJIT(e.clock, ev.compiles, ev.dur)
				}
			case evtExtract:
				e.dispatchExtract(s, ev.en)
				ev.en = nil
			case evtStray:
				e.dispatchStray(s, ev)
			case evtResult:
				e.results[ev.res.Query] = append(e.results[ev.res.Query], ev.res)
			case evtCkptCapture:
				e.foldCkptCapture(ev)
				ev.frags, ev.pend = nil, nil
			case evtCkptMerge:
				e.foldCkptMerge(ev)
				ev.agg, ev.join = nil, [2][]Tuple{}
			}
		}
		fx.events = fx.events[:0]
	}
}

// dispatchExtract finishes a staged state movement (step 4 of the AQE
// protocol): pick the courier source via the engine RNG, ship both
// network legs, and enqueue the state at its new owner. Runs at
// barrier A so the RNG and the tick's shared link budget are consumed
// in canonical slot order.
func (e *Engine) dispatchExtract(origin *slot, en *entry) {
	qi := en.stQuery
	q := e.queries[qi]
	e.metrics.recordReshuffle(en.stWeight)
	if e.obs != nil {
		e.obs.reshuffled.Add(en.stWeight)
	}
	// The RNG is drawn unconditionally (determinism: the draw sequence
	// must not depend on fault state); a dead courier is then replaced
	// by the first live task so moved state is not pointlessly
	// destroyed.
	src := e.tasks[e.rng.Intn(len(e.tasks))]
	if e.nodeIsDown(src.node) {
		for _, rt := range e.tasks {
			if !e.nodeIsDown(rt.node) {
				src = rt
				break
			}
		}
	}
	// A staged cell ships only its since-barrier residual: the snapshot
	// slice pre-shipped courier→destination when the stage was set up.
	bytes := (en.stWeight - en.stStagedW) * e.streams[q.spec.Inputs[0].Stream].BytesPerTuple
	e.migAlignBytes += bytes
	if en.stStagedW > 0 {
		e.migResidualBytes += bytes
	}
	_, d1 := e.net.Send(origin.node, src.node, bytes)
	owner := int(q.assign.Partition(en.stGroup))
	_, d2 := e.net.Send(src.node, e.placement.PartitionNode(owner), bytes)
	en.slot = owner
	en.arriveAt = e.clock.Add(d1 + d2)
	en.watermark = vtime.NoWatermark
	e.outstandingState++
	e.enqueue(src, en)
}

// dispatchStray finishes a staged iterator-guard reroute: the stray
// travels back through a random source and on to its true owner, which
// absorbs it immediately (delays fold into the next tick's work).
func (e *Engine) dispatchStray(origin *slot, ev *slotEvt) {
	e.metrics.recordReshuffle(ev.w)
	if e.obs != nil {
		e.obs.reshuffled.Add(ev.w)
	}
	q := e.queries[ev.qi]
	bytes := ev.w * e.streams[q.spec.Inputs[ev.side].Stream].BytesPerTuple
	src := e.tasks[e.rng.Intn(len(e.tasks))]
	e.net.Send(origin.node, src.node, bytes)
	owner := int(q.assign.Partition(ev.g))
	if e.nodeIsDown(e.slots[owner].node) {
		// The true owner's node crashed: the stray is unrecoverable
		// until a reconfiguration reassigns the group.
		e.lostBytes += bytes
		return
	}
	e.net.Send(src.node, e.placement.PartitionNode(owner), bytes)
	target := e.slots[owner]
	e.insert(target, q, ev.side, &ev.t, ev.g, ev.w)
	e.metrics.recordProcessed(int(target.node), ev.qi, ev.w)
}

// foldCkptCapture applies one slot's staged checkpoint capture to the
// in-flight checkpoint. Fragment order within the capture is
// irrelevant: assembleCheckpoint sorts every group's payload before
// any byte or float is derived from it.
func (e *Engine) foldCkptCapture(ev *slotEvt) {
	ck := e.ckpt
	if ck == nil || !ck.active {
		return
	}
	for _, k := range ev.pend {
		ck.pending[k] = true
	}
	for i := range ev.frags {
		f := &ev.frags[i]
		cg := ck.group(f.Query, f.Group)
		cg.Agg = append(cg.Agg, f.Agg...)
		cg.Join[0] = append(cg.Join[0], f.Join[0]...)
		cg.Join[1] = append(cg.Join[1], f.Join[1]...)
	}
}

// foldCkptMerge folds a landed state transfer into the in-flight
// capture iff the capture is still waiting on it. The pending check
// runs here — not at stage time — because the mark itself may have
// been staged earlier in this very tick.
func (e *Engine) foldCkptMerge(ev *slotEvt) {
	ck := e.ckpt
	if ck == nil || !ck.active || !ck.pending[ev.key] {
		return
	}
	delete(ck.pending, ev.key)
	cg := ck.group(ev.key.query, ev.key.group)
	cg.Agg = append(cg.Agg, ev.agg...)
	cg.Join[0] = append(cg.Join[0], ev.join[0]...)
	cg.Join[1] = append(cg.Join[1], ev.join[1]...)
}

// routerMerge is barrier B: staged sends commit on the real network in
// global task-ID order, followed by each task's micro-batch machinery
// and heartbeats. Acceptance is settled here, against real link state,
// so several nodes contending for one ingress link resolve in task
// order.
func (e *Engine) routerMerge(boundary bool) {
	for _, rt := range e.tasks {
		if e.nodeDown != nil && e.nodeDown[rt.node] {
			continue
		}
		rt.deliverSamples(e)
		for i := range rt.pending {
			rt.commit(e, &rt.pending[i])
			rt.pending[i].en = nil
		}
		rt.pending = rt.pending[:0]
		if boundary {
			rt.flushHeld(e)
		}
		if e.cfg.Profile.MicroBatch {
			rt.shipDraining(e)
		}
		rt.heartbeat(e)
	}
	for _, nr := range e.nodes {
		if nr.lostBytes != 0 {
			e.lostBytes += nr.lostBytes
			nr.lostBytes = 0
		}
	}
}
