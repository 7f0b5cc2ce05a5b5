package engine

import (
	"math"
	"reflect"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file holds the heavier end-to-end correctness invariants of the
// runtime: results must be independent of sharing mode, of sliding vs
// tumbling execution details, and of any schedule of live join
// re-partitionings.

// runExactMulti runs `n` same-key aggregation queries in the given
// sharing mode and returns each query's sorted results.
func runExactMulti(t *testing.T, shared bool, n int, d vtime.Duration) [][]AggResult {
	t.Helper()
	cfg := lightConfig()
	cfg.Shared = shared
	streams := []StreamDef{testStream("s", 16)}
	var queries []QuerySpec
	for i := 0; i < n; i++ {
		queries = append(queries, aggQuery("q", 0))
	}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(d)
	out := make([][]AggResult, n)
	for i := 0; i < n; i++ {
		rs := append([]AggResult(nil), e.Results(i)...)
		// Results carry the query index; normalize for comparison.
		for j := range rs {
			rs[j].Query = 0
		}
		SortAggResults(rs)
		out[i] = rs
	}
	return out
}

func TestSharedModePreservesExactResults(t *testing.T) {
	// The shared partitioner must be invisible to query semantics:
	// identical results with sharing on and off, and identical results
	// across the sharing queries.
	ns := runExactMulti(t, false, 2, 10*vtime.Second)
	sh := runExactMulti(t, true, 2, 10*vtime.Second)
	if len(ns[0]) == 0 {
		t.Fatal("no results")
	}
	if !reflect.DeepEqual(ns[0], ns[1]) {
		t.Fatal("non-shared queries disagree with each other")
	}
	if !reflect.DeepEqual(sh[0], sh[1]) {
		t.Fatal("shared queries disagree with each other")
	}
	if !reflect.DeepEqual(ns[0], sh[0]) {
		t.Fatalf("sharing changed results: %d vs %d rows", len(ns[0]), len(sh[0]))
	}
}

func TestSlidingWindowMassConservation(t *testing.T) {
	// With Range = 3*Slide every tuple lands in exactly 3 window
	// instances: total emitted weight must be 3x the tumbling weight
	// over the same closed span.
	run := func(rng, slide vtime.Duration) float64 {
		cfg := lightConfig()
		q := aggQuery("q", 0)
		q.Window = WindowSpec{Range: rng, Slide: slide}
		e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{q})
		if err != nil {
			t.Fatal(err)
		}
		e.SetStreamRate(0, 200)
		e.Run(14 * vtime.Second)
		// Sum weights of windows fully inside the steady span [3s, 9s).
		var w float64
		for _, r := range e.Results(0) {
			if r.Win >= vtime.Time(3*vtime.Second) && r.Win < vtime.Time(9*vtime.Second) {
				w += r.Weight
			}
		}
		return w
	}
	tumbling := run(vtime.Second, vtime.Second)
	sliding := run(3*vtime.Second, vtime.Second)
	if tumbling == 0 {
		t.Fatal("no tumbling mass")
	}
	if ratio := sliding / tumbling; math.Abs(ratio-3) > 0.2 {
		t.Fatalf("sliding/tumbling mass ratio = %v, want ~3", ratio)
	}
}

// joinEngine builds a single exact join over two small streams, keyed
// on the given column of each.
func joinEngine(t *testing.T, streams []StreamDef, keys [2]int) *Engine {
	t.Helper()
	cfg := lightConfig()
	q := QuerySpec{
		ID: "j", Kind: OpJoin,
		Inputs: []Input{
			{Stream: 0, Key: KeySpec{keys[0]}},
			{Stream: 1, Key: KeySpec{keys[1]}},
		},
		Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second},
	}
	e, err := New(cfg, streams, []QuerySpec{q})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 100)
	e.SetStreamRate(1, 100)
	return e
}

func TestReconfigurationPreservesJoinMatches(t *testing.T) {
	// Total join matches over a fixed horizon must be identical with
	// and without a live re-partitioning: held tuples replay against
	// the merged buffers, so no match is lost or duplicated. The
	// mixed-width shape parks rows of a 2-column and a 4-column input
	// in one held block.
	for _, shape := range []struct {
		name    string
		streams []StreamDef
		keys    [2]int
	}{
		{"same-width", []StreamDef{testStream("l", 8), testStream("r", 8)}, [2]int{0, 0}},
		{"mixed-width", []StreamDef{widthStream("narrow", 2, 8), widthStream("wide", 4, 8)}, [2]int{1, 3}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			run := func(reconfig bool) float64 {
				e := joinEngine(t, shape.streams, shape.keys)
				e.Metrics().StartMeasurement(0)
				e.Run(6 * vtime.Second)
				if reconfig {
					na := e.Assignment(0).Clone()
					for g := 0; g < na.NumGroups(); g++ {
						na.Set(keyspace.GroupID(g), (na.Partition(keyspace.GroupID(g))+1)%keyspace.PartitionID(e.Config().NumPartitions))
					}
					if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: na}); err != nil {
						t.Fatal(err)
					}
					epoch := e.Epoch()
					for i := 0; i < 200 && !e.ReconfigComplete(epoch); i++ {
						e.Run(e.Config().Tick)
					}
					if !e.ReconfigComplete(epoch) {
						t.Fatal("join reconfiguration never completed")
					}
					e.InjectFinalize()
				}
				// Continue to a fixed virtual horizon either way.
				e.Run(vtime.Time(14 * vtime.Second).Sub(e.Clock()))
				e.Metrics().StopMeasurement(e.Clock())
				return e.Metrics().EmittedTotal()
			}
			base := run(false)
			moved := run(true)
			if base == 0 {
				t.Fatal("join emitted nothing")
			}
			if base != moved {
				t.Fatalf("re-partitioning changed join matches: %v vs %v", base, moved)
			}
		})
	}
}

func TestRepeatedReconfigurationsPreserveAggResults(t *testing.T) {
	// Three successive live re-partitionings, results still identical.
	base := runExact(t, lightConfig(), 16*vtime.Second, nil)
	moved := runExact(t, lightConfig(), 16*vtime.Second, func(e *Engine) {
		for round := 0; round < 3; round++ {
			if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
				t.Fatal(err)
			}
			epoch := e.Epoch()
			for i := 0; i < 200 && !e.ReconfigComplete(epoch); i++ {
				e.Run(e.Config().Tick)
			}
			if !e.ReconfigComplete(epoch) {
				t.Fatalf("round %d never completed", round)
			}
			e.InjectFinalize()
			e.Run(vtime.Second)
		}
	})
	if len(base) == 0 {
		t.Fatal("no results")
	}
	last := base[len(base)-1].Win
	var trimmed []AggResult
	for _, r := range moved {
		if r.Win <= last {
			trimmed = append(trimmed, r)
		}
	}
	if !reflect.DeepEqual(base, trimmed) {
		t.Fatalf("results diverged after 3 reconfigurations: %d vs %d rows", len(base), len(trimmed))
	}
}

func TestHeldTuplesReplayAfterMerge(t *testing.T) {
	// White-box: force a pending group and verify insert parks tuples,
	// merge replays them.
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	s := e.slots[0]
	g := keyspace.GroupID(0)
	s.pendingState[pendKey{0, g}] = true
	var tu Tuple
	tu.Cols[2] = 5
	e.insert(s, e.queries[0], 0, &tu, g, 1)
	if st := s.exact[0]; st != nil && len(st.agg) != 0 {
		t.Fatal("tuple folded despite pending state")
	}
	if s.held[pendKey{0, g}].rows() != 1 {
		t.Fatal("tuple not parked")
	}
	e.outstandingState++
	e.mergeState(s, &entry{kind: entryState, stQuery: 0, stGroup: g}, false)
	if got := s.held[pendKey{0, g}].rows(); got != 0 {
		t.Fatalf("%d tuples still parked after merge", got)
	}
	if st := e.exactState(s, 0); len(st.agg) == 0 {
		t.Fatal("replayed tuple missing from state")
	}
}

// widthStream builds a deterministic stream of the given column count
// whose last column cycles over `keys` entity IDs; the other columns
// hold a per-column marker so a row read through the wrong lane shows.
func widthStream(name string, cols int, keys int64) StreamDef {
	return StreamDef{
		Name: name, NumCols: cols, BytesPerTuple: 100,
		NewSource: func(task int) Source {
			i := int64(task) * 1009
			return &rowSource{cols: cols, g: GeneratorFunc(func(t *Tuple, ts vtime.Time) {
				i++
				for c := 0; c < cols-1; c++ {
					t.Cols[c] = int64(1000 * (c + 1))
				}
				t.Cols[cols-1] = i % keys
			})}
		},
	}
}

func TestHeldRowsAcrossInputWidths(t *testing.T) {
	// A join whose inputs differ in column count parks rows of both
	// sides in one held block; the replay must read a wide row parked
	// behind a narrow one back intact.
	streams := []StreamDef{widthStream("narrow", 2, 8), widthStream("wide", 4, 8)}
	e := joinEngine(t, streams, [2]int{1, 3})
	s, g := e.slots[0], keyspace.GroupID(0)
	s.pendingState[pendKey{0, g}] = true
	narrow := Tuple{Cols: [MaxCols]int64{1000, 5}}
	wide := Tuple{Cols: [MaxCols]int64{1000, 2000, 3000, 5}}
	e.insert(s, e.queries[0], 0, &narrow, g, 1)
	e.insert(s, e.queries[0], 1, &wide, g, 1)
	if got := s.held[pendKey{0, g}].rows(); got != 2 {
		t.Fatalf("%d rows parked, want 2", got)
	}
	e.outstandingState++
	e.mergeState(s, &entry{kind: entryState, stQuery: 0, stGroup: g}, false)
	var replayed []Tuple
	for _, buf := range e.exactState(s, 0).join[1] {
		replayed = append(replayed, buf...)
	}
	if len(replayed) != 1 || replayed[0] != wide {
		t.Fatalf("replayed wide rows %+v, want [%+v]", replayed, wide)
	}
}
