// Command perfbench is the same-host benchmark of the SASPAR
// reproduction. It runs one named workload through the program's
// public API, checks the outputs, and prints every metric by name and
// unit; the last line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). See README.md for the workloads, the
// metric definitions and how to compare two commits on one host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The names and units here are
// the ones BENCHMARK.json lists; perfbench_test.go keeps the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them (see README.md for what each means per
// workload).
var endToEnd = []metricDef{
	{"throughput_mrows_per_cpu_s", "Mrows/cpu-s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_p90_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"tpch.fill_ns_per_row", "ns/row", "lower"},
	{"ajoinwl.fill_ns_per_row", "ns/row", "lower"},
	{"stats.sample_calls", "count", "lower"},
	{"stats.sample_ns_per_call", "ns/call", "lower"},
	{"stats.sample_share", "ratio", "lower"},
	{"engine.tick_self_ms_p50", "ms", "lower"},
	{"engine.tick_p99_ms", "ms", "lower"},
	{"engine.rows_per_tick", "rows/tick", "higher"},
	{"engine.stall_ticks", "count", "lower"},
	{"gc.heap_peak_mb", "MB", "lower"},
	{"netsim.bytes_per_row", "B/row", "lower"},
	{"optimizer.solves", "count", "lower"},
	{"optimizer.solve_ms_p50", "ms", "lower"},
	{"optimizer.nodes", "count", "lower"},
	{"optimizer.solve_share", "ratio", "lower"},
	{"core.triggers", "count", "lower"},
	{"core.applied", "count", "lower"},
	{"core.applied_per_trigger", "ratio", "higher"},
	{"aqe.align_ticks", "count", "lower"},
	{"aqe.align_tick_ms_p50", "ms", "lower"},
	{"migration.pause_vs", "vs", "lower"},
	{"checkpoint.completed", "count", "higher"},
	{"checkpoint.bytes_stored", "B", "lower"},
	{"checkpoint.store_put_us_p50", "us", "lower"},
	{"wire.encode_ns_per_row", "ns/row", "lower"},
	{"wire.decode_ns_per_row", "ns/row", "lower"},
	{"serve.admit_mrows_per_s", "Mrows/s", "higher"},
	{"serve.claim_p99_ms", "ms", "lower"},
	{"serve.send_late_ms_p99", "ms", "lower"},
	{"serve.net_ms_p50", "ms", "lower"},
	{"serve.ring_wait_ms_p50", "ms", "lower"},
	{"serve.emit_p50_ms", "ms", "lower"},
	{"serve.sample_share", "ratio", "lower"},
	{"serve.invalid_steps", "count", "lower"},
	{"ring.full_total", "count", "lower"},
	{"ring.pending_max", "blocks", "lower"},
	{"trace.unaccounted_pct", "%", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"fail_frac", "ratio", "lower"},
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	e2e    map[string]float64 // end-to-end metrics by BENCHMARK.json name
	layers map[string]float64 // per-layer metrics; set on traced runs
	named  []namedValue       // workload-level names, printed for people
	checks []check

	attempted int64 // operations attempted: ticks or frames, plus checks
	missing   int64 // operations that failed outside the checks (lost frames)

	// work is the wall time the traced and the untraced run share,
	// the base of obs.trace_overhead_pct.
	work time.Duration
	// digest fingerprints the deterministic end state; empty where
	// wall-clock arrival makes the state nondeterministic.
	digest string
}

type namedValue struct {
	name, unit string
	value      float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) failed() int64 {
	n := o.missing
	for _, c := range o.checks {
		if !c.ok {
			n++
		}
	}
	return n
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	cache   string  // directory the traced run writes its spans to
	tr      *tracer // nil on untraced runs

	// dropFrame, when positive, is a serve frame the generator skips
	// while counting it as sent: the fault the conservation checks
	// must catch. Tests set it.
	dropFrame int64
}

type workloadFn func(rc runConfig) (*outcome, error)

var workloads = map[string]workloadFn{
	"shared-tpch":    runSharedTPCH,
	"drift-ajoin":    runDriftAJoin,
	"serve-loopback": runServeLoopback,
}

// ungated are the workloads BENCHMARK.json does not list: the command
// runs them, but their end-to-end figures drift on the reference host
// by more than a bound between runs minutes apart (README.md, "How
// steady it is"), so they cannot gate a change.
var ungated = map[string]bool{"shared-tpch": true}

// fingerprint identifies the host a result was measured on; results
// with different fingerprints are never compared.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func hostFingerprint() fingerprint {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version()}
}

// record is one run as --out stores it and compare reads it.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: shared-tpch, drift-ajoin or serve-loopback")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "target measured wall seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	cache := fs.String("cache", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	out := fs.String("out", "", "append the run's record (with host fingerprint) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	fp := hostFingerprint()
	fmt.Fprintf(stdout, "fingerprint nproc=%d gomaxprocs=%d cpu=%q go=%s\n", fp.NProc, fp.GOMAXPROCS, fp.CPU, fp.Go)
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)

	rc := runConfig{seed: *seed, seconds: *seconds, cache: *cache}
	o, err := fn(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *trace == 1 {
		rc.tr = newTracer()
		t, err := fn(rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		if o.digest != "" {
			t.check("traced-equals-untraced", t.digest == o.digest, "untraced %s traced %s", o.digest, t.digest)
		}
		t.checks = append(t.checks, o.checks...)
		t.attempted += o.attempted
		t.missing += o.missing
		if o.work > 0 {
			t.layers["obs.trace_overhead_pct"] = 100 * (t.work.Seconds() - o.work.Seconds()) / o.work.Seconds()
		}
		path := filepath.Join(*cache, fmt.Sprintf("trace-%s-s%d.jsonl", *name, *seed))
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %d spans written to %s\n", len(rc.tr.spans), path)
		o = t
	}

	defs, values := endToEnd, o.e2e
	if *trace == 1 {
		defs, values = perLayer, o.layers
	}
	for _, d := range defs {
		if v, ok := values[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			o.check("metric-finite", false, "%s measured %v", d.name, v)
			values[d.name] = 0
		}
	}
	if *trace == 1 {
		values["fail_frac"] = float64(o.failed()) / float64(o.attempted)
	}
	for _, nv := range o.named {
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", nv.name, nv.value, nv.unit)
	}
	fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", "fail_frac", float64(o.failed())/float64(o.attempted), "ratio")
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "check %-26s %-6s %s\n", c.name, status, c.detail)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		fmt.Fprintf(stdout, "metric %-30s %16.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	failed := o.failed()
	if *out != "" {
		rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Fingerprint: fp,
			Correct: failed == 0, Attempted: o.attempted, Failed: failed, Metrics: values}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": o.attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
