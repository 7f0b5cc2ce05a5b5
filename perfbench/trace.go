package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saspar/internal/checkpoint"
	"saspar/internal/engine"
)

// span is one traced interval, recorded from the benchmark's own calls
// into the program. Key groups the spans of one run, tick or frame.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Key    string `json:"key"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int64, key, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Key: key, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span name's summed self time: its duration
// minus the part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerClock aggregates the calls into one wrapped layer: call count,
// work units (rows) and summed nanoseconds. The engine may call a
// wrapper from its worker goroutines, so the fields are atomic; the
// benchmark drains them once per tick.
type layerClock struct {
	calls, units, ns atomic.Int64
}

func (c *layerClock) add(units int64, d time.Duration) {
	c.calls.Add(1)
	c.units.Add(units)
	c.ns.Add(int64(d))
}

// take returns and resets the totals since the last take.
func (c *layerClock) take() (calls, units int64, d time.Duration) {
	return c.calls.Swap(0), c.units.Swap(0), time.Duration(c.ns.Swap(0))
}

// timedSampler wraps the statistics sampler the engine feeds.
type timedSampler struct {
	inner engine.Sampler
	c     *layerClock
}

func (s timedSampler) Sample(v engine.SampleVec) {
	t := time.Now()
	s.inner.Sample(v)
	s.c.add(1, time.Since(t))
}

// timedSource wraps one source task's block generator.
type timedSource struct {
	inner engine.Source
	c     *layerClock
}

func (s timedSource) NextBlock(b *engine.TupleBlock, from, to int) {
	t := time.Now()
	s.inner.NextBlock(b, from, to)
	s.c.add(int64(to-from), time.Since(t))
}

// timeSources returns copies of the stream definitions whose sources
// report their fill time to c.
func timeSources(streams []engine.StreamDef, c *layerClock) []engine.StreamDef {
	out := make([]engine.StreamDef, len(streams))
	for i, sd := range streams {
		newSrc := sd.NewSource
		sd.NewSource = func(task int) engine.Source { return timedSource{newSrc(task), c} }
		out[i] = sd
	}
	return out
}

// storeCall is one timed checkpoint store call.
type storeCall struct {
	op         string
	start, end time.Time
}

// timedStore wraps the checkpoint store and keeps every call for the
// tick that made it.
type timedStore struct {
	inner checkpoint.Store
	mu    sync.Mutex
	calls []storeCall
	puts  []time.Duration
}

func (s *timedStore) record(op string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.calls = append(s.calls, storeCall{op, start, end})
	if op == "put" {
		s.puts = append(s.puts, end.Sub(start))
	}
	s.mu.Unlock()
}

// take returns and clears the calls made since the last take.
func (s *timedStore) take() []storeCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.calls
	s.calls = nil
	return out
}

func (s *timedStore) Put(snap *checkpoint.Snapshot) error {
	t := time.Now()
	defer s.record("put", t)
	return s.inner.Put(snap)
}

func (s *timedStore) Get(id int64) (*checkpoint.Snapshot, error) {
	t := time.Now()
	defer s.record("get", t)
	return s.inner.Get(id)
}

func (s *timedStore) List() ([]int64, error) {
	t := time.Now()
	defer s.record("list", t)
	return s.inner.List()
}

func (s *timedStore) Delete(id int64) error {
	t := time.Now()
	defer s.record("delete", t)
	return s.inner.Delete(id)
}

// quantile returns the q-quantile of xs by the nearest-rank rule. It
// sorts a copy; an empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

// beyond reports how many samples lie strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
