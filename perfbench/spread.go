package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spread runs the workload once per seed of o.spread, each in a child
// process as the benchmark is normally run, and prints every metric's
// median, quartiles, extremes and interquartile range as a share of the
// median — the evidence for the bounds in BENCHMARK.json.
func spread(o options, w io.Writer) error {
	var seeds []int64
	for _, f := range strings.Split(o.spread, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--spread: %w", err)
		}
		seeds = append(seeds, s)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, s := range seeds {
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--scale", o.scale,
			"--work", o.work)
		cmd.Stderr = os.Stderr
		steal0, total0 := cpuSteal()
		out, err := cmd.Output()
		steal1, total1 := cpuSteal()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		r, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !r.Correct {
			return fmt.Errorf("seed %d: run reported incorrect output", s)
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		line := fmt.Sprintf("seed %d:", s)
		for _, m := range endToEndMetrics {
			line += fmt.Sprintf(" %s=%.4g", m.name, r.Metrics[m.name].Value)
		}
		if total1 > total0 {
			line += fmt.Sprintf(" cpu_steal=%.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spread of %s over %d seeds (trace=%s, %d s runs)\n", o.workload, len(seeds), trace, o.seconds)
	fmt.Fprintf(w, "%-26s %14s %14s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med", "unit")
	for _, n := range names {
		xs := values[n]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-26s %14.4f %14.4f %14.4f %14.4f %14.4f %8.4f %s\n", n, med, q1, q3, lo, hi, rel, units[n])
	}
	return nil
}

// lastResult decodes the JSON result line a run ends with.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("decoding result line: %w", err)
	}
	return r, nil
}
