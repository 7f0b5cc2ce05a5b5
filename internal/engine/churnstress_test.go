package engine

import (
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// runChurn drives one engine through every mutation source at once:
// live re-partitionings, a node crash and revival mid-churn, and
// checkpoint barrier churn interleaved with the reconfiguration
// markers. It returns the engine and the number of checkpoints that
// completed.
func runChurn(t *testing.T, cfg Config) (*Engine, int) {
	t.Helper()
	e, err := New(cfg, []StreamDef{testStream("s", 16)},
		[]QuerySpec{aggQuery("a", 0), aggQuery("b", 1)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 2000)
	e.Metrics().StartMeasurement(0)

	ckptID := int64(1)
	completed := 0
	for round := 0; round < 6; round++ {
		if err := e.Run(500 * vtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Checkpoint barrier churn: start a new barrier whenever the
		// previous one finished aligning.
		if err := e.BeginCheckpoint(ckptID); err == nil {
			ckptID++
		}
		// A crash strikes mid-churn and the node comes back two rounds
		// later, so reconfigurations and barriers cross a down node.
		switch round {
		case 2:
			e.SetNodeDown(1, true)
		case 4:
			e.SetNodeDown(1, false)
		}
		// Live re-partitioning: rotate half the groups of query 0.
		if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err == nil {
			epoch := e.Epoch()
			for i := 0; i < 400 && !e.ReconfigComplete(epoch); i++ {
				if err := e.Run(cfg.Tick); err != nil {
					t.Fatal(err)
				}
			}
			if !e.ReconfigComplete(epoch) {
				t.Fatalf("round %d: reconfiguration epoch %d never drained", round, epoch)
			}
			e.InjectFinalize()
		}
		if _, ok := e.CompleteCheckpoint(); ok {
			completed++
		}
	}
	if err := e.Run(2 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	return e, completed
}

// TestChurnStress checks liveness under churn: every reconfiguration
// epoch drains (runChurn fails otherwise), a checkpoint completes, and
// results keep flowing across the crash and the revival. Byte-level
// correctness is the determinism suite's job in internal/core.
func TestChurnStress(t *testing.T) {
	e, completed := runChurn(t, lightConfig())
	if completed == 0 {
		t.Fatal("no checkpoint barrier completed during the churn")
	}
	if len(e.Results(0)) == 0 {
		t.Fatal("churned engine emitted no results")
	}
	// The crashed node was revived mid-churn; windows must keep closing.
	n := len(e.Results(0))
	if err := e.Run(2 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	if len(e.Results(0)) <= n {
		t.Fatal("results stopped flowing after the revival")
	}
}
