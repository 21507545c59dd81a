// Command perfbench is the repository's end-to-end benchmark. It drives the
// humo library, the humod serving layer (internal/serve) and candidate
// generation (internal/blocking) from outside, through their public
// functions, on seeded inputs, checks every result against ground truth and
// the library's own answers, and prints its metrics as one JSON line.
//
//	perfbench --workload certify-100k --seed 7 --seconds 20 --trace 0
//
// With --trace 1 the run is split in an untraced and a traced half; the
// traced half records spans around each public call and reports per-layer
// self times instead of the end-to-end metrics. --spread runs one workload
// once per seed in child processes and prints each metric's quartiles.
// See METRICS.md for the workloads, the metrics and their noise sources.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	work     string
	spread   string
}

// bench is one workload: a fixed number of seeded inputs, each resolved
// once per pass.
type bench interface {
	// setup builds every input from the seed (and any state the program
	// needs before the first op).
	setup(ctx context.Context, seed int64) error
	// inputs is the fixed number of inputs of a pass.
	inputs() int
	// resolve runs input i once; tr is nil in the untraced half.
	resolve(ctx context.Context, i int, tr *tracer) (outcome, error)
	// close releases the inputs and any server state.
	close() error
}

// preparer is a bench with untimed work between its last set-up and the
// first op: the fixtures and library references its checks compare with.
type preparer interface {
	prepare(ctx context.Context) error
}

// outcome is what one resolve measured and produced.
type outcome struct {
	ops   []lap        // time of each op
	busy  lap          // time counted toward throughput
	pairs int          // candidate pairs resolved
	res   []resolution // one per resolved session
	bad   []string     // failed correctness checks
}

var workloads = map[string]func(o options) bench{
	"ds-pipeline":   newPipeline,
	"certify-100k":  newCertify,
	"humod-answer":  newAnswer,
	"humod-recover": newRecover,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.spread != "" {
		if err := spread(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 records per-layer spans")
	fs.StringVar(&o.scale, "scale", "full", "input scale: full or tiny")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for state dirs and traces")
	fs.StringVar(&o.spread, "spread", "", "comma-separated seeds: run the workload once per seed and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.scale != "full" && o.scale != "tiny" {
		return o, fmt.Errorf("--scale must be full or tiny")
	}
	return o, nil
}

// The library fan-out passed to every worker knob, and GOMAXPROCS. Both are
// fixed so results and timings do not follow the host's core count. The
// searches are single-threaded, so one proc costs them nothing; with one
// proc no thread spins waiting for another, so an op's CPU time is the work
// it does, and it equals its wall time on a quiet host.
const (
	fanout = 1
	procs  = 1
)

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A run builds its inputs at least minSetupReps times and, while the
// repetitions add up to less than setupBudget of wall time, up to
// maxSetupReps times; setup_s is their median CPU time.
const (
	minSetupReps = 5
	maxSetupReps = 9
	setupBudget  = 3 * time.Second
)

// run executes one benchmark run and writes the human report to w.
func run(ctx context.Context, o options, w io.Writer) (result, error) {
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	o.work = work
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t scale=%s\n", o.workload, o.seed, o.seconds, o.trace, o.scale)
	fmt.Fprintln(w, environment(o))

	var b bench
	var setups []lap
	var setupTotal time.Duration
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || setupTotal < setupBudget); rep++ {
		if b != nil {
			if err := b.close(); err != nil {
				return result{}, err
			}
		}
		b = workloads[o.workload](o)
		// Collect the previous repetition's garbage first, so each
		// repetition starts from the same heap.
		runtime.GC()
		sw := startWatch()
		if err := b.setup(ctx, o.seed); err != nil {
			b.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := sw.lap()
		setupTotal += d.wall
		setups = append(setups, d)
	}
	defer b.close()
	if p, ok := b.(preparer); ok {
		if err := p.prepare(ctx); err != nil {
			return result{}, fmt.Errorf("prepare: %w", err)
		}
	}

	steal0, total0 := cpuSteal()
	// One untimed op lets lazy initialization and caches settle; its
	// resolutions are what every pass must repeat for input 0.
	warm, err := b.resolve(ctx, 0, nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		budget /= 2
	}
	plain, err := runPhase(ctx, b, budget, nil, [][]resolution{warm.res})
	if err != nil {
		return result{}, err
	}
	plain.bad = append(warm.bad, plain.bad...)
	phases := []*phase{plain}
	var traced *phase
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if traced, err = runPhase(ctx, b, budget, tr, plain.res); err != nil {
			return result{}, err
		}
		phases = append(phases, traced)
	}
	heap := heapRetainedMB()
	runtime.KeepAlive(b)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Fprintf(w, "cpu steal during the run: %.1f%% of all CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}

	r := result{Metrics: make(map[string]metric)}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += len(p.bad)
		for _, msg := range p.bad {
			fmt.Fprintln(w, "CHECK FAILED:", msg)
		}
	}
	var all []resolution
	for _, rs := range plain.res {
		all = append(all, rs...)
	}
	if msg := checkQuality(all); msg != "" {
		fmt.Fprintln(w, "CHECK FAILED:", msg)
		r.Failed++
	}
	r.Correct = r.Failed == 0

	e2e := plain.endToEnd(all)
	e2e["setup_s"] = median(cpuMs(setups)) / 1e3
	e2e["heap_retained_mb"] = heap
	plain.report(w, "untraced", e2e, setups)
	if !o.trace {
		for _, m := range endToEndMetrics {
			r.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		return r, nil
	}
	layers := traced.perLayer(tr, plain)
	traced.layerReport(w, tr)
	for _, m := range perLayerMetrics {
		r.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	path := filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.writeFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, "trace written to", path)
	return r, nil
}

// phase accumulates the passes of one half of a run.
type phase struct {
	ops       []lap
	busy      lap
	pairs     int
	passes    int
	attempted int
	res       [][]resolution // per input, from the first pass
	bad       []string
	allocMB   float64
	gcCPUms   float64
}

// runPhase resolves every input once per pass, starting another pass only
// while it is expected to end within budget, so every input is weighted
// equally however many passes fit. Each input's resolutions must repeat
// exactly across passes and match ref's, where ref has them (the warm-up's
// for input 0, or the untraced half's): the determinism contract.
func runPhase(ctx context.Context, b bench, budget time.Duration, tr *tracer, ref [][]resolution) (*phase, error) {
	p := &phase{res: ref}
	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	for {
		t0 := time.Now()
		for i := 0; i < b.inputs(); i++ {
			o, err := b.resolve(ctx, i, tr)
			if err != nil {
				return nil, fmt.Errorf("input %d: %w", i, err)
			}
			p.ops = append(p.ops, o.ops...)
			p.busy = p.busy.plus(o.busy)
			p.pairs += o.pairs
			p.attempted += len(o.res)
			p.bad = append(p.bad, o.bad...)
			if len(p.res) <= i {
				p.res = append(p.res, o.res)
			} else if !slices.Equal(p.res[i], o.res) {
				p.bad = append(p.bad, fmt.Sprintf("input %d: resolutions %+v differ from an earlier pass's %+v", i, o.res, p.res[i]))
			}
		}
		p.passes++
		pass := time.Since(t0)
		if time.Since(start)+pass > budget {
			break
		}
	}
	alloc1, gc1 := runtimeCounters()
	p.allocMB = float64(alloc1-alloc0) / (1 << 20)
	p.gcCPUms = (gc1 - gc0) * 1e3
	return p, nil
}

// runtimeCounters reads the cumulative heap allocation and GC CPU time.
func runtimeCounters() (allocBytes uint64, gcCPUSeconds float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPUSeconds = s[1].Value.Float64()
	}
	return allocBytes, gcCPUSeconds
}

// endToEnd computes the phase's end-to-end metrics but set-up and heap:
// the timings on the CPU clock, the quality means over its resolutions.
func (p *phase) endToEnd(all []resolution) map[string]float64 {
	var labels, f1 []float64
	for _, r := range all {
		labels = append(labels, float64(r.Labels))
		f1 = append(f1, r.F1)
	}
	secs := p.busy.cpu.Seconds()
	return map[string]float64{
		"op_cpu_ms":       median(cpuMs(p.ops)),
		"ops_per_cpu_s":   float64(len(p.ops)) / secs,
		"pairs_per_cpu_s": float64(p.pairs) / secs,
		"human_labels":    mean(labels),
		"label_f1":        mean(f1),
	}
}

// wallClock computes the phase's timings on the wall clock, reported beside
// the gated CPU-clock ones.
func (p *phase) wallClock() map[string]float64 {
	secs := p.busy.wall.Seconds()
	return map[string]float64{
		"wall.op_p50_ms":   median(wallMs(p.ops)),
		"wall.ops_per_s":   float64(len(p.ops)) / secs,
		"wall.pairs_per_s": float64(p.pairs) / secs,
	}
}

// report prints the end-to-end metrics, the latency tails on both clocks
// and the set-up repetitions.
func (p *phase) report(w io.Writer, name string, e2e map[string]float64, setups []lap) {
	fmt.Fprintf(w, "%s: inputs=%d passes=%d ops=%d resolutions=%d\n", name, len(p.res), p.passes, len(p.ops), p.attempted)
	n := len(p.ops)
	for _, c := range []struct {
		clock string
		ms    []float64
	}{{"cpu", cpuMs(p.ops)}, {"wall", wallMs(p.ops)}} {
		if n >= 1000 {
			fmt.Fprintf(w, "  op %-4s time: p50=%.4f ms p99=%.4f ms (n=%d)\n", c.clock, median(c.ms), percentile(c.ms, 0.99), n)
		} else {
			fmt.Fprintf(w, "  op %-4s time: p50=%.4f ms max=%.4f ms (n=%d, too few for p99)\n", c.clock, median(c.ms), percentile(c.ms, 1), n)
		}
	}
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	wall := p.wallClock()
	fmt.Fprintf(w, "  wall clock: op p50 %.4f ms, %.4f ops/s, %.4f pairs/s\n", wall["wall.op_p50_ms"], wall["wall.ops_per_s"], wall["wall.pairs_per_s"])
	fmt.Fprintf(w, "  setup repetitions: cpu %.1f ms, wall %.1f ms\n", cpuMs(setups), wallMs(setups))
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perLayer computes the per-layer metrics of a traced phase, normalized
// per op, plus the runtime counters, the untraced phase's wall-clock
// timings and the tracing overhead against the untraced phase.
func (p *phase) perLayer(tr *tracer, plain *phase) map[string]float64 {
	out := plain.wallClock()
	ops := float64(len(p.ops))
	layers, _ := tr.selfTimes()
	for _, lt := range layers {
		out[lt.Name+"_ms"] = float64(lt.Self.Nanoseconds()) / 1e6 / ops
	}
	tr.mu.Lock()
	for name, v := range tr.counts {
		out[name] = v / ops
	}
	tr.mu.Unlock()
	out["runtime.alloc_mb_per_op"] = plain.allocMB / float64(len(plain.ops))
	out["runtime.gc_cpu_ms_per_op"] = plain.gcCPUms / float64(len(plain.ops))
	out["overhead.op_cpu_ms"] = median(cpuMs(p.ops)) - median(cpuMs(plain.ops))
	return out
}

// layerReport prints the per-layer self-time table of a traced phase: each
// span name's self time per op and its share of the traced ops' time.
func (p *phase) layerReport(w io.Writer, tr *tracer) {
	layers, roots := tr.selfTimes()
	ops := float64(len(p.ops))
	fmt.Fprintf(w, "traced: passes=%d ops=%d op_cpu_p50=%.4f ms op_wall_p50=%.4f ms\n", p.passes, len(p.ops), median(cpuMs(p.ops)), median(wallMs(p.ops)))
	fmt.Fprintf(w, "  %-26s %12s %12s %8s %10s\n", "layer", "self ms/op", "total ms/op", "share", "spans/op")
	var sum time.Duration
	for _, lt := range layers {
		sum += lt.Self
		fmt.Fprintf(w, "  %-26s %12.4f %12.4f %7.1f%% %10.2f\n", lt.Name,
			durMs(lt.Self)/ops, durMs(lt.All)/ops, 100*float64(lt.Self)/float64(roots), float64(lt.Spans)/ops)
	}
	fmt.Fprintf(w, "  %-26s %12.4f %12s %7.1f%%\n", "(sum of self times)", durMs(sum)/ops, "", 100*float64(sum)/float64(roots))
}

// checkQuality is the statistical guarantee check: the share of
// resolutions meeting (alpha, beta) must not fall below theta's binomial
// allowance at level 0.001 over the run's resolutions.
func checkQuality(all []resolution) string {
	meets := 0
	for _, r := range all {
		if r.Meets {
			meets++
		}
	}
	if min := binomialAllowance(len(all), req.Theta, 0.001); meets < min {
		return fmt.Sprintf("%d of %d resolutions meet precision>=%.2f and recall>=%.2f, below the binomial allowance %d for theta=%.2f",
			meets, len(all), req.Alpha, req.Beta, min, req.Theta)
	}
	return ""
}
