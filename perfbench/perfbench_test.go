package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload: workload, seed: 1, seconds: 1, trace: trace, scale: "tiny",
		work: t.TempDir(),
	}
}

// TestWorkloadsTiny runs every workload end to end at tiny scale, untraced
// and traced, and checks the printed metrics are exactly the catalog's.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			r, err := run(context.Background(), tinyOptions(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(r.Metrics) != len(want) {
				t.Fatalf("%s trace=%t: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Fatalf("%s trace=%t: metric %s = %+v (present %t), want unit %s", name, trace, m.name, got, ok, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// setupTiny builds a tiny workload for the damage tests.
func setupTiny(t *testing.T, name string) (context.Context, bench) {
	t.Helper()
	ctx := context.Background()
	b := workloads[name](tinyOptions(t, name, false))
	if err := b.setup(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if p, ok := b.(preparer); ok {
		if err := p.prepare(ctx); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { b.close() })
	return ctx, b
}

// resolveBad resolves input 0 and returns its failed checks.
func resolveBad(t *testing.T, ctx context.Context, b bench, tr *tracer) []string {
	t.Helper()
	o, err := b.resolve(ctx, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	return o.bad
}

// TestChecksFireOnDamage damages one input per workload and expects the
// workload's correctness check to fail — and to pass on the same input
// undamaged.
func TestChecksFireOnDamage(t *testing.T) {
	t.Run("ds-pipeline fingerprint", func(t *testing.T) {
		ctx, b := setupTiny(t, "ds-pipeline")
		p := b.(*pipeline)
		if bad := resolveBad(t, ctx, p, newTracer()); len(bad) != 0 {
			t.Fatalf("undamaged: %v", bad)
		}
		p.damageFP = true
		if bad := resolveBad(t, ctx, p, newTracer()); len(bad) == 0 {
			t.Fatal("a traced breakdown with another threshold passed the fingerprint check")
		}
	})
	t.Run("certify-100k certification", func(t *testing.T) {
		ctx, b := setupTiny(t, "certify-100k")
		c := b.(*certify)
		if bad := resolveBad(t, ctx, c, nil); len(bad) != 0 {
			t.Fatalf("undamaged: %v", bad)
		}
		c.damage = true
		if bad := resolveBad(t, ctx, c, nil); len(bad) == 0 {
			t.Fatal("budget-stopped searches passed the certification check")
		}
	})
	t.Run("humod-answer library parity", func(t *testing.T) {
		ctx, b := setupTiny(t, "humod-answer")
		a := b.(*answer)
		if bad := resolveBad(t, ctx, a, nil); len(bad) != 0 {
			t.Fatalf("undamaged: %v", bad)
		}
		a.damage = true
		if bad := resolveBad(t, ctx, a, nil); len(bad) == 0 {
			t.Fatal("a session answered with inverted labels matched the library reference")
		}
	})
	t.Run("humod-recover first batch", func(t *testing.T) {
		ctx, b := setupTiny(t, "humod-recover")
		r := b.(*recoverBench)
		if bad := resolveBad(t, ctx, r, nil); len(bad) != 0 {
			t.Fatalf("undamaged: %v", bad)
		}
		r.damage = true
		if bad := resolveBad(t, ctx, r, nil); len(bad) == 0 {
			t.Fatal("recovery from a journal missing its last answer passed the first-batch check")
		}
	})
	t.Run("pass determinism", func(t *testing.T) {
		ctx, b := setupTiny(t, "certify-100k")
		warm, err := b.resolve(ctx, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPhase(ctx, b, time.Nanosecond, nil, [][]resolution{warm.res})
		if err != nil || len(p.bad) != 0 {
			t.Fatalf("undamaged: %v %v", err, p.bad)
		}
		moved := slices.Clone(warm.res)
		moved[0].Labels++
		if p, err = runPhase(ctx, b, time.Nanosecond, nil, [][]resolution{moved}); err != nil || len(p.bad) == 0 {
			t.Fatalf("a pass differing from the warm-up passed the determinism check (%v)", err)
		}
	})
	t.Run("quality allowance", func(t *testing.T) {
		all := make([]resolution, 40)
		for i := range all {
			all[i].Meets = true
		}
		if msg := checkQuality(all); msg != "" {
			t.Fatalf("all meeting: %s", msg)
		}
		for i := 0; i < 15; i++ {
			all[i].Meets = false
		}
		if msg := checkQuality(all); msg == "" {
			t.Fatal("25 of 40 meeting at theta=0.9 passed the allowance")
		}
	})
}

// TestCatalogMatchesBenchmarkJSON keeps the printed metric names and units
// and the workload names in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json %v", got, names)
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json %d", len(endToEndMetrics), len(spec.EndToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Fatalf("end-to-end %d: %s/%s, BENCHMARK.json %s/%s", i, endToEndMetrics[i].name, endToEndMetrics[i].unit, m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json %d", len(perLayerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Fatalf("per-layer %d: %s/%s, BENCHMARK.json %s/%s", i, perLayerMetrics[i].name, perLayerMetrics[i].unit, m.Name, m.Unit)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Fatalf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestBinomialAllowance(t *testing.T) {
	for _, n := range []int{1, 10, 48, 96, 320} {
		k := binomialAllowance(n, 0.9, 0.001)
		if k < 0 || k > n || float64(k) >= 0.9*float64(n) {
			t.Fatalf("allowance(%d) = %d", n, k)
		}
	}
	if k := binomialAllowance(100, 0.9, 0.001); k != 80 {
		// P(X < 80) = 0.00081, P(X < 81) = 0.0020 for X ~ Binomial(100, 0.9).
		t.Fatalf("allowance(100) = %d, want 80", k)
	}
}

// TestSelfTimes checks self time is a span's time minus its children's
// union, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},
		{Name: "c", Parent: 1, Start: 20, End: 25},
	}
	layers, roots := tr.selfTimes()
	if roots != 100 {
		t.Fatalf("roots = %v", roots)
	}
	want := map[string]time.Duration{"op": 60, "a": 25, "b": 20, "c": 5}
	for _, lt := range layers {
		if lt.Self != want[lt.Name] {
			t.Fatalf("%s self = %v, want %v", lt.Name, lt.Self, want[lt.Name])
		}
	}
}
