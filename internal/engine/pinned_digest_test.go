package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"testing"

	"saspar/internal/vtime"
)

// Engine-level companion of the pinned digests in internal/core. The
// core scenarios always attach a sampler, which switches off the
// sampler-free router paths; these scenarios run the bare engine so
// those paths are pinned too. Each digest covers every window result
// and the engine's metric folds.

// pinnedDigests maps scenario name to the hex SHA-256 of its dump.
var pinnedDigests = map[string]string{
	"step/nonshared": "5f2f89bd226c44f43b98a01df94df9cdcab85fed1bd3a34ecf72a4aea69f94a8",
	"step/shared":    "c93f22296a6d441f9b609ef32b2a745d9f3cc0c66e6e8ba013de906ebb3d4240",
	"churn/exact":    "201bdd9ca667f07f50be1a9c896131ea4d52d231c56dea665d81c52436929c69",
	"churn/counting": "b1a1eb5c8ed2d670e29c7caa354b6e6b4ea113911dbb7045f3e0397fc292b46e",
}

// dumpEngine renders everything observable about a finished run.
func dumpEngine(e *Engine) []byte {
	m := e.Metrics()
	b := fmt.Appendf(nil, "clock=%d epoch=%d generated=%d lost=%v health=%x\n",
		e.Clock(), e.Epoch(), e.GeneratedTuples(), e.LostBytes(), e.HealthFingerprint())
	b = fmt.Appendf(b, "processed=%v emitted=%v tput=%v sharing=%v reshuffled=%v\n",
		m.ProcessedTotal(), m.EmittedTotal(), m.OverallThroughput(), m.SharingRatio(), m.Reshuffled())
	b = fmt.Appendf(b, "lat avg=%d sd=%d p50=%d p99=%d jit=%d/%d\n",
		m.AvgLatency(), m.LatencyStddev(), m.LatencyQuantile(0.5), m.LatencyQuantile(0.99),
		m.JITCompiles(), m.JITTime())
	for qi := 0; qi < e.NumQueries(); qi++ {
		b = fmt.Appendf(b, "q%d tput=%v\n", qi, m.QueryThroughput(qi))
		for _, r := range e.Results(qi) {
			b = fmt.Appendf(b, "%+v\n", r)
		}
	}
	return b
}

// pinnedStep runs the benchmark fixture without a sampler.
func pinnedStep(t *testing.T, shared bool) []byte {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NumPartitions = 8
	cfg.NumGroups = 32
	cfg.SourceTasks = 4
	cfg.TupleWeight = 500
	cfg.Shared = shared
	e, err := New(cfg, benchStreams(), benchQueries(6))
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 20e6)
	e.SetStreamRate(1, 5e6)
	if err := e.Run(vtime.Second); err != nil {
		t.Fatal(err)
	}
	e.Metrics().StartMeasurement(e.Clock())
	if err := e.Run(2 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	e.Metrics().StopMeasurement(e.Clock())
	return dumpEngine(e)
}

func TestPinnedEngineDigests(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		t.Skip("no build info: cannot tell which target the binary was built for")
	}
	for _, s := range bi.Settings {
		if want, pinned := map[string]string{"GOARCH": "amd64", "GOAMD64": "v1"}[s.Key]; pinned && s.Value != want {
			t.Skipf("digests were cut on %s=%s, this build has %s=%s; float bits may differ",
				s.Key, want, s.Key, s.Value)
		}
	}
	churn := func(exact bool) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			cfg := lightConfig()
			cfg.ExactWindows = exact
			e, _ := runChurn(t, cfg)
			return dumpEngine(e)
		}
	}
	for _, sc := range []struct {
		name string
		run  func(t *testing.T) []byte
	}{
		{"step/nonshared", func(t *testing.T) []byte { return pinnedStep(t, false) }},
		{"step/shared", func(t *testing.T) []byte { return pinnedStep(t, true) }},
		{"churn/exact", churn(true)},
		{"churn/counting", churn(false)},
	} {
		t.Run(sc.name, func(t *testing.T) {
			sum := sha256.Sum256(sc.run(t))
			got := hex.EncodeToString(sum[:])
			if want := pinnedDigests[sc.name]; got != want {
				t.Errorf("engine digest changed:\n  want %s\n  got  %s", want, got)
			}
		})
	}
}
