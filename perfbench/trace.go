package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans and counts in memory. Spans are opened and closed
// by the benchmark around each public call it makes into the library; the
// library itself is not instrumented. A nil *tracer is the untraced mode:
// every method is a no-op, so the measured code path is the same with and
// without tracing apart from the recording itself.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

// span is one timed interval. Parent is the index of the enclosing span,
// or -1 for a root (one root per op).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span of duration d ending now; the server-side
// handler spans use it, since they are timed on another goroutine.
func (t *tracer) record(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now - d.Nanoseconds(), End: now})
	t.mu.Unlock()
}

// add accumulates a count (batches, candidates, allocations, ...).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerTime is one span name's accumulated self and total time.
type layerTime struct {
	Name      string
	Self, All time.Duration
	Spans     int
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus the part of it its children cover) and the summed
// duration, plus the summed duration of the roots (the ops). Open spans are
// ignored.
func (t *tracer) selfTimes() (layers []layerTime, roots time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*layerTime)
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		if s.Parent < 0 {
			roots += time.Duration(d)
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.All += time.Duration(d)
		lt.Self += time.Duration(d - covered(s.Start, s.End, children[id]))
		lt.Spans++
	}
	for _, lt := range byName {
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Self > layers[j].Self })
	return layers, roots
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write dumps every span and count as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{"count": n, "value": t.counts[n]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFile writes the trace to path.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
