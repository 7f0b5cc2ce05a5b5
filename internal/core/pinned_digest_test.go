package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"testing"

	"saspar/internal/spe"
)

// The determinism grids compare configurations of one build with each
// other, so a change that shifts every configuration by the same bit
// would pass them all. This test pins the base scenarios across
// commits instead: each fingerprint's SHA-256 must equal a digest cut
// from an earlier build. A deliberate behaviour change re-cuts the
// table and says so in its commit message. Prometheus HELP lines are
// left out of the digest: they are documentation, and every sample and
// TYPE line stays pinned.

// pinnedTarget is the build the digests were cut on. Other targets may
// fuse or reorder float operations differently (FMA on arm64, say), so
// the pin is only meaningful on this one.
var pinnedTarget = map[string]string{"GOARCH": "amd64", "GOAMD64": "v1"}

// pinnedDigests maps scenario name to the hex SHA-256 of its
// fingerprint.
var pinnedDigests = map[string]string{
	"run/AJoin":         "41d9dc8279bc698dce72e474ceee307bf6e15ab7547c96d854e34212157bf8e7",
	"run/AJoin+faults":  "3addc3db5a368df43480b41d5e8a29680901e5734fd2fa68ce617a057c69558d",
	"run/Prompt":        "dbf67626b9cf5b40f0bb84faf01edcefacba55bd93b8eb403c2d4a4a2f32afd4",
	"run/Prompt+faults": "7f55462c0ee06dae8656cbd942ffed544341e4c1b6bc613021133bc964144174",
	"run/Flink":         "86746b96af247e7877a0c0ddf20359f65126b554664f166bf61b751a6e82c087",
	"run/Flink+faults":  "9c0f9e08682faa6df879e8ac8fc738dda6e5627484ced2549f1e3e5e81f85595",
	"elastic":           "68492a395e78afa4a07017e26e546eb84b047c657246659dc4346dfb8e3609b9",
	"elastic+crash":     "25b9dc71df4964af19bb9372b337bdc1d61e31a9cac4824a9d0b5953343fdddc",
	"migration/staged":  "7f7ad04ceb65609e1a7533a53a17bf37a2be3b805ad2899b5176f592728b9b7f",
	"migration/pause":   "8d6688572ab007542c9cc648ecdce6e4ede93d6c73503e7c8f5555a340ce95de",
}

// pinnedScenarios lists every base-scenario fingerprint by name.
func pinnedScenarios() []struct {
	name string
	run  func(t *testing.T) []byte
} {
	type scenario = struct {
		name string
		run  func(t *testing.T) []byte
	}
	var out []scenario
	for _, kind := range spe.Kinds() {
		for _, faulted := range []bool{false, true} {
			kind, faulted := kind, faulted
			name := "run/" + kind.String()
			if faulted {
				name += "+faults"
			}
			out = append(out, scenario{name, func(t *testing.T) []byte {
				b, _ := runFingerprint(t, kind, 0, 0, faulted)
				return b
			}})
		}
	}
	for _, crash := range []bool{false, true} {
		crash := crash
		name := "elastic"
		if crash {
			name += "+crash"
		}
		out = append(out, scenario{name, func(t *testing.T) []byte {
			b, _ := runElasticFingerprint(t, 0, crash)
			return b
		}})
	}
	for _, mode := range []string{MigrationStaged, MigrationPause} {
		mode := mode
		out = append(out, scenario{"migration/" + mode, func(t *testing.T) []byte {
			b, _, results := runMigrationFingerprint(t, mode, 0)
			for _, r := range results {
				b = fmt.Appendf(b, "%+v\n", r)
			}
			return b
		}})
	}
	return out
}

func TestPinnedFingerprintDigests(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		t.Skip("no build info: cannot tell which target the binary was built for")
	}
	for _, s := range bi.Settings {
		if want, pinned := pinnedTarget[s.Key]; pinned && s.Value != want {
			t.Skipf("digests were cut on %s=%s, this build has %s=%s; float bits may differ",
				s.Key, want, s.Key, s.Value)
		}
	}
	for _, sc := range pinnedScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var kept []byte
			for _, line := range bytes.SplitAfter(sc.run(t), []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("# HELP ")) {
					kept = append(kept, line...)
				}
			}
			sum := sha256.Sum256(kept)
			got := hex.EncodeToString(sum[:])
			if want := pinnedDigests[sc.name]; got != want {
				t.Errorf("fingerprint digest changed:\n  want %s\n  got  %s", want, got)
			}
		})
	}
}
