package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// result is the last line of the command's standard output.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func run(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := runMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json lists,
// with their units, and passes its output checks.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	cache := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			res, out := run(t, "--workload", w, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--cache", cache)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s",
					w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONNames keeps the command's metric table and the
// benchmark description in step, name by name and unit by unit.
func TestBenchmarkJSONNames(t *testing.T) {
	spec := readSpec(t)
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
	var names, gated []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloadNames() {
		if !ungated[w] {
			gated = append(gated, w)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(gated, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command's gated workloads %v", names, gated)
	}
}

// TestDroppedFrameFailsConservation sends every frame but one while
// counting that one as sent: the claim and window checks must trip.
func TestDroppedFrameFailsConservation(t *testing.T) {
	o, err := runServeLoopback(runConfig{seed: 5, seconds: 0.2, cache: t.TempDir(), dropFrame: primeFrames + 3})
	if err != nil {
		t.Fatal(err)
	}
	tripped := map[string]bool{}
	for _, c := range o.checks {
		if !c.ok {
			tripped[c.name] = true
		}
	}
	for _, name := range []string{"rows-claimed", "window-weight", "window-sum"} {
		if !tripped[name] {
			t.Errorf("check %s passed with a dropped frame", name)
		}
	}
	if o.missing != 1 || o.failed() < 4 {
		t.Errorf("missing=%d failed=%d, want 1 missing frame and at least 4 failures", o.missing, o.failed())
	}
}

// TestPerturbedStateChangesDigest primes two systems from one seed,
// which must agree, then moves one a tick further: the digest the
// set-ups and the traced run are compared by must tell them apart.
func TestPerturbedStateChangesDigest(t *testing.T) {
	a, _, err := setupInproc(driftAJoin, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := setupInproc(driftAJoin, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if stateDigest(a) != stateDigest(b) {
		t.Fatal("two systems primed from one seed differ")
	}
	if err := b.Run(b.Engine().Config().Tick); err != nil {
		t.Fatal(err)
	}
	if stateDigest(a) == stateDigest(b) {
		t.Error("a system a tick further on has the same digest")
	}
}

// TestPerturbedResultFailsOffCheck runs drift-ajoin's side runs, which
// must agree, then perturbs one output of the SASPAR-on run at a time:
// the check that compares it with the SASPAR-off run must trip.
func TestPerturbedResultFailsOffCheck(t *testing.T) {
	on, err := runSide(driftAJoin, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runSide(driftAJoin, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	checkSide(o, on, off)
	if o.failed() != 0 {
		t.Fatalf("unperturbed side runs disagree: %+v", o.checks)
	}
	perturb := map[string]func(s *sideOut){
		"off-processed-equal": func(s *sideOut) { s.processed[1] += 500 },
		"off-emitted-equal":   func(s *sideOut) { s.emitted += 500 },
	}
	for name, f := range perturb {
		p := *on
		p.processed = append([]float64(nil), on.processed...)
		f(&p)
		o := &outcome{}
		checkSide(o, &p, off)
		for _, c := range o.checks {
			if c.ok == (c.name == name) {
				t.Errorf("perturbing for %s: check %s ok=%v", name, c.name, c.ok)
			}
		}
	}
}

// TestCompareRefusesOtherHosts: results measured on hosts with
// different fingerprints are never compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	fp := hostFingerprint()
	other := fp
	other.GOMAXPROCS++
	rec := func(f fingerprint, v float64) record {
		return record{Workload: "shared-tpch", Fingerprint: f, Metrics: map[string]float64{"latency_p50_ms": v}}
	}
	var out bytes.Buffer
	if code := compareRecords([]record{rec(fp, 1)}, []record{rec(other, 1)}, nil, &out); code != 3 {
		t.Errorf("compare across fingerprints exited %d, want 3:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords([]record{rec(fp, 1), rec(fp, 1.1)}, []record{rec(fp, 1.2)}, map[string]float64{"latency_p50_ms": 0.1}, &out); code != 0 {
		t.Errorf("compare on one host exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "latency_p50_ms") {
		t.Errorf("compare output lacks the metric:\n%s", out.String())
	}
}

// TestQuantile pins the nearest-rank rule the percentiles use.
func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v", got)
	}
	if got := beyond(xs, 0.99); got != 10 {
		t.Errorf("beyond p99 = %d", got)
	}
}
