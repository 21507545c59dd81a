package main

import (
	"context"
	"fmt"
	"runtime"

	"humo"
)

// req is the quality requirement every workload resolves to: the paper's
// headline setting, precision and recall at least 0.9 with confidence 0.9.
var req = humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

// layerNames names the per-layer span and batch count of Session.Next for
// each method: the search computes while the caller waits in Next.
var layerNames = map[humo.Method][2]string{
	humo.MethodRisk:    {"risk.next", "risk.batches"},
	humo.MethodCorrect: {"correct.next", "correct.batches"},
	humo.MethodHybrid:  {"core.hybrid_next", "core.hybrid_batches"},
}

// input is one resolvable workload: the pairs and their ground truth.
// Pair ids are 0..n-1, so the truth is indexed by id; aligned is the truth
// in the workload's sorted order (for F1).
type input struct {
	w       *humo.Workload
	truth   truth
	aligned []bool
}

func newInput(pairs []humo.Pair, t truth, subsetSize int) (*input, error) {
	w, err := humo.NewWorkload(pairs, subsetSize)
	if err != nil {
		return nil, err
	}
	aligned := make([]bool, w.Len())
	for i := range aligned {
		aligned[i] = t[w.Pair(i).ID]
	}
	return &input{w: w, truth: t, aligned: aligned}, nil
}

// truth is the simulated human: a perfect answer for every pair id.
type truth []bool

// Label implements humo.Oracle.
func (t truth) Label(id int) bool { return t[id] }

// LabelBatch implements humo.Labeler.
func (t truth) LabelBatch(_ context.Context, ids []int) (map[int]bool, error) {
	out := make(map[int]bool, len(ids))
	for _, id := range ids {
		out[id] = t[id]
	}
	return out, nil
}

// resolution is the quality outcome of one resolved session: its human
// cost and how its labels score against the ground truth.
type resolution struct {
	Labels int
	F1     float64
	Meets  bool
}

// score evaluates a complete labeling (indexed by sorted position).
func (in *input) score(labels []bool, cost int) (resolution, error) {
	q, err := humo.Evaluate(labels, in.aligned)
	if err != nil {
		return resolution{}, err
	}
	return resolution{
		Labels: cost,
		F1:     q.F1,
		Meets:  q.Precision >= req.Alpha && q.Recall >= req.Beta,
	}, nil
}

// solutionLabels resolves a division the way Session.Resolve does: D- is
// unmatch, D+ match and DH labeled by the (perfect) human.
func (in *input) solutionLabels(sol humo.Solution) []bool {
	return sol.Resolve(in.w, in.truth)
}

// sessionConfig is the library configuration of a session with the given
// method and seed, with the fan-out passed explicitly.
func sessionConfig(m humo.Method, seed int64) humo.SessionConfig {
	cfg := humo.SessionConfig{Method: m, Seed: seed, Resolve: true}
	cfg.Hybrid.Sampling.Workers = fanout
	cfg.Risk.Sampling.Workers = fanout
	cfg.Risk.Schedule.Workers = fanout
	cfg.Correct.Schedule.Workers = fanout
	return cfg
}

// driven is a library Session driven against the simulated human, with
// every batch it asked so far.
type driven struct {
	sess    *humo.Session
	method  humo.Method
	batches [][]int
}

// drive starts a library session and advances it to termination, or to
// stopAfter answered batches when stopAfter >= 0.
func drive(ctx context.Context, in *input, m humo.Method, cfg humo.SessionConfig, tr *tracer, parent, stopAfter int) (*driven, error) {
	sess, err := humo.NewSession(in.w, req, cfg)
	if err != nil {
		return nil, err
	}
	d := &driven{sess: sess, method: m}
	if err := d.advance(ctx, in, tr, parent, stopAfter); err != nil {
		sess.Cancel()
		return nil, err
	}
	return d, nil
}

// advance answers batches until the session terminates or stopAfter
// batches (stopAfter >= 0) have been answered, tracing the wait in Next
// (the search's compute), the labeler and Answer under parent.
func (d *driven) advance(ctx context.Context, in *input, tr *tracer, parent, stopAfter int) error {
	names := layerNames[d.method]
	for stopAfter < 0 || len(d.batches) < stopAfter {
		sp := tr.begin(names[0], parent)
		b, err := d.sess.Next(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		if b.Empty() {
			return nil
		}
		tr.add(names[1], 1)
		d.batches = append(d.batches, b.IDs)
		sp = tr.begin("labeler.wait", parent)
		ans, err := in.truth.LabelBatch(ctx, b.IDs)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("session.answer", parent)
		err = d.sess.Answer(ans)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// finish scores a terminated session and checks it succeeded.
func (d *driven) finish(in *input) (resolution, error) {
	if !d.sess.Done() {
		return resolution{}, fmt.Errorf("session not terminated")
	}
	if err := d.sess.Err(); err != nil {
		return resolution{}, err
	}
	return in.score(d.sess.Labels(), d.sess.Cost())
}

// heapRetainedMB is the live heap after forced collections: what the
// benchmark and the program hold, independent of GC timing.
func heapRetainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
