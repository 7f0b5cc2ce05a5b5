package engine

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"saspar/internal/vtime"
)

// This file pins the columnar data plane's contracts: KeyOfBlock must
// equal a per-row KeyOf gather for every spec arity, and the batched
// hot path must stay allocation-free. The row-adapter equivalence test
// (a source lifted from per-row Next vs a native NextBlock twin) lives
// in the workload package next to workload.RowAdapter.

// fillTestBlock populates n rows over cols lanes with deterministic
// mixed-magnitude values.
func fillTestBlock(b *TupleBlock, n, cols int) {
	b.Resize(n, cols)
	for r := 0; r < n; r++ {
		b.TS[r] = vtime.Time(r) * vtime.Time(vtime.Millisecond)
		for c := 0; c < cols; c++ {
			b.Col[c][r] = int64(r*31+c*17) * 2654435761 % 100003
		}
	}
}

func TestKeyOfBlockMatchesKeyOf(t *testing.T) {
	specs := []KeySpec{
		{0},
		{2},
		{0, 1},
		{1, 3},
		{0, 1, 2},
		{3, 0, 2, 1},
	}
	const n = 70
	var blk TupleBlock
	fillTestBlock(&blk, n, 4)
	dst := make([]uint64, n)
	var tu Tuple
	for _, ks := range specs {
		// Offset sub-span exercises the dst re-indexing.
		from, to := 5, n-3
		ks.KeyOfBlock(&blk, from, to, dst)
		for i := from; i < to; i++ {
			blk.RowTuple(&tu, i, 4)
			if want := ks.KeyOf(&tu); dst[i-from] != want {
				t.Fatalf("spec %v row %d: KeyOfBlock %x, KeyOf %x", ks, i, dst[i-from], want)
			}
		}
	}
}

func TestKeyOfNoAllocs(t *testing.T) {
	var blk TupleBlock
	fillTestBlock(&blk, 64, 4)
	dst := make([]uint64, 64)
	var tu Tuple
	blk.RowTuple(&tu, 7, 4)
	for _, ks := range []KeySpec{{0}, {0, 1}, {0, 1, 2}} {
		ks := ks
		if a := testing.AllocsPerRun(100, func() { _ = ks.KeyOf(&tu) }); a != 0 {
			t.Errorf("KeyOf arity %d: %.1f allocs/op, want 0", len(ks), a)
		}
		if a := testing.AllocsPerRun(100, func() { ks.KeyOfBlock(&blk, 0, 64, dst) }); a != 0 {
			t.Errorf("KeyOfBlock arity %d: %.1f allocs/op, want 0", len(ks), a)
		}
	}
}

// TestStepAllocs bounds the steady-state tick's allocation count over
// the whole batched hot path — source block fill, router scatter, edge
// queues, slot drains — for both execution modes. The ISSUE budget is
// ≤8 allocs/op; the freelists and flat scratch get it to 0, and this
// test keeps regressions from creeping back.
func TestStepAllocs(t *testing.T) {
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"nonshared", false}, {"shared", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Nodes = 4
			cfg.NumPartitions = 8
			cfg.NumGroups = 32
			cfg.SourceTasks = 4
			cfg.TupleWeight = 500
			cfg.Shared = mode.shared
			e, err := New(cfg, benchStreams(), benchQueries(6))
			if err != nil {
				t.Fatal(err)
			}
			e.SetStreamRate(0, 20e6)
			e.SetStreamRate(1, 5e6)
			// Steady state: scratch buffers and freelists at working size.
			if err := e.Run(2 * vtime.Second); err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(50, func() { e.step() }); a > 8 {
				t.Errorf("engine step: %.1f allocs/op, want <= 8", a)
			}
		})
	}
}

func BenchmarkKeyOf(b *testing.B) {
	var blk TupleBlock
	fillTestBlock(&blk, 64, 4)
	var tu Tuple
	blk.RowTuple(&tu, 9, 4)
	for _, ks := range []KeySpec{{0}, {0, 1}, {0, 1, 2}} {
		b.Run([]string{"", "1col", "2col", "3col"}[len(ks)], func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= ks.KeyOf(&tu)
			}
			_ = sink
		})
	}
}

// BenchmarkKeyOfBlock measures the columnar fold per 64-row block; the
// per-row figure is ns/op ÷ 64.
func BenchmarkKeyOfBlock(b *testing.B) {
	var blk TupleBlock
	fillTestBlock(&blk, 64, 4)
	dst := make([]uint64, 64)
	for _, ks := range []KeySpec{{0}, {0, 1}, {0, 1, 2}} {
		b.Run([]string{"", "1col", "2col", "3col"}[len(ks)], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ks.KeyOfBlock(&blk, 0, 64, dst)
			}
		})
	}
}

// populateValue sets every field of v (recursively through structs and
// arrays) to a non-zero sample, so a reset routine that misses a field
// is caught by the zero check afterwards.
func populateValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := reflect.NewAt(v.Field(i).Type(), unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
			populateValue(f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			populateValue(v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	}
}

// checkReset asserts v is semantically recycled: slices truncated to
// length 0 (capacity may remain), everything else zero.
func checkReset(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkReset(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkReset(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Slice:
		if v.Len() != 0 {
			t.Errorf("%s: length %d after recycle, want 0", path, v.Len())
		}
	default:
		if !v.IsZero() {
			t.Errorf("%s: not zeroed after recycle", path)
		}
	}
}

// TestRecycleResetsEveryField guards the freelist reset in
// Engine.recycle, which resets entry field by field (a whole-struct
// assignment would duffcopy the embedded TupleBlock's 14 slice headers
// on the hot path). A field added to entry without a matching reset
// shows up here as stale state, not as a Heisenbug in a recycled tick.
func TestRecycleResetsEveryField(t *testing.T) {
	var en entry
	populateValue(reflect.ValueOf(&en).Elem())
	var e Engine
	e.recycle(&en)
	checkReset(t, "entry", reflect.ValueOf(&en).Elem())
	if len(e.entryFree) != 1 || e.entryFree[0] != &en {
		t.Fatal("recycled entry not returned to the freelist")
	}
}
