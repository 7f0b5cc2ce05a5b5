package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain reads the records two sets of runs stored with --out,
// refuses to compare them unless every record carries the same host
// fingerprint, and prints each workload's per-metric medians, their
// quartile spread and the change against BENCHMARK.json's bound.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var head []record
		head, err = readRecords(args[1])
		if err == nil {
			return compareRecords(base, head, readBounds("BENCHMARK.json"), w)
		}
	}
	fmt.Fprintf(w, "perfbench compare: %v\n", err)
	return 2
}

func compareRecords(base, head []record, bounds map[string]float64, w io.Writer) int {
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(w, "perfbench compare: no records")
		return 2
	}
	fp := base[0].Fingerprint
	for _, r := range append(append([]record(nil), base...), head...) {
		if r.Fingerprint != fp {
			fmt.Fprintf(w, "perfbench compare: refusing, fingerprints differ: %+v vs %+v\n", fp, r.Fingerprint)
			return 3
		}
	}
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s\n", fp.NProc, fp.GOMAXPROCS, fp.CPU, fp.Go)
	type key struct{ workload, metric string }
	series := func(rs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v)
			}
		}
		return m
	}
	b, h := series(base), series(head)
	var keys []key
	for k := range b {
		if _, ok := h[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-30s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "base", "iqr%", "head", "iqr%", "change%", "bound%")
	for _, k := range keys {
		bm, hm := quantile(b[k], 0.5), quantile(h[k], 0.5)
		change := 0.0
		if bm != 0 {
			change = 100 * (hm - bm) / bm
		}
		bound := "-"
		if v, ok := bounds[k.metric]; ok {
			bound = fmt.Sprintf("%.0f", 100*v)
		}
		fmt.Fprintf(w, "%-16s %-30s %12.4f %8.1f %12.4f %8.1f %8.1f %6s\n", k.workload, k.metric,
			bm, iqrPct(b[k]), hm, iqrPct(h[k]), change, bound)
	}
	return 0
}

// iqrPct is the distance between the first and third quartile as a
// percentage of the median.
func iqrPct(xs []float64) float64 {
	m := quantile(xs, 0.5)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// readBounds returns BENCHMARK.json's regression bound per end-to-end
// metric; a missing file gives no bounds.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
