package main

import (
	"context"
	"fmt"
	"runtime"

	"humo"
	"humo/internal/blocking"
)

// pipeline is the ds-pipeline workload: seeded DBLP-Scholar-like table
// pairs go through GenerateWorkload (token blocking on the title) and a
// hybrid Session to a certified, fully resolved labeling. Candidate
// generation dominates; the search is a small share. The op is one input,
// tables to labels.
type pipeline struct {
	o        options
	n        int
	shape    dsShape
	tables   [][2]*humo.Table
	seeds    []int64
	fp       []string // GenerateWorkload's fingerprint per input
	damageFP bool     // tests: perturb the traced breakdown
}

func newPipeline(o options) bench {
	p := &pipeline{o: o, n: 24, shape: dsShape{entities: 700, dupFrac: 0.85, maxDups: 3, related: 0.3, fillers: 7000}}
	if o.scale == "tiny" {
		p.n, p.shape.entities, p.shape.fillers = 2, 150, 1200
	}
	return p
}

func (p *pipeline) inputs() int { return p.n }

func (p *pipeline) setup(_ context.Context, seed int64) error {
	v := newDSVocab()
	for i := 0; i < p.n; i++ {
		s := inputSeed(seed, i)
		a, b := dsTables(v, p.shape, s)
		p.tables = append(p.tables, [2]*humo.Table{a, b})
		p.seeds = append(p.seeds, s)
	}
	p.fp = make([]string, p.n)
	return nil
}

// genConfig is the generation recipe of the DS workload (§VIII-A): token
// blocking on the title, Jaccard on title and authors, Jaro-Winkler on the
// venue, distinct-value weights. Every option is explicit so the traced
// breakdown below reproduces GenerateWorkload without relying on defaults.
func (p *pipeline) genConfig() humo.GenConfig {
	return humo.GenConfig{
		Specs: []humo.AttributeSpec{
			{Attribute: "title", Kind: humo.KindJaccard},
			{Attribute: "authors", Kind: humo.KindJaccard},
			{Attribute: "venue", Kind: humo.KindJaroWinkler},
		},
		Block:          humo.BlockToken,
		BlockAttribute: "title",
		MinShared:      2,
		Window:         10,
		Rows:           2,
		Bands:          32,
		Threshold:      0.2,
		Workers:        fanout,
	}
}

func (p *pipeline) resolve(ctx context.Context, i int, tr *tracer) (outcome, error) {
	ta, tb := p.tables[i][0], p.tables[i][1]
	cfg := p.genConfig()
	var o outcome
	if tr != nil && p.fp[i] == "" {
		g, err := humo.GenerateWorkload(ctx, ta, tb, cfg)
		if err != nil {
			return o, err
		}
		p.fp[i] = g.Fingerprint
	}

	sw := startWatch()
	root := tr.begin("op", -1)
	var cands []humo.Candidate
	var w *humo.Workload
	if tr == nil {
		g, err := humo.GenerateWorkload(ctx, ta, tb, cfg)
		if err != nil {
			return o, err
		}
		cands, w = g.Candidates, g.Workload
		p.fp[i] = g.Fingerprint
	} else {
		var fp string
		var err error
		if cands, w, fp, err = p.tracedGenerate(ctx, ta, tb, cfg, tr, root); err != nil {
			return o, err
		}
		if fp != p.fp[i] {
			o.bad = append(o.bad, fmt.Sprintf("input %d: traced generation fingerprint %s, GenerateWorkload %s", i, fp, p.fp[i]))
		}
	}
	t := make(truth, len(cands))
	for j, c := range cands {
		t[j] = ta.Records[c.A].EntityID == tb.Records[c.B].EntityID
	}
	in := &input{w: w, truth: t, aligned: make([]bool, w.Len())}
	for j := range in.aligned {
		in.aligned[j] = t[w.Pair(j).ID]
	}
	d, err := drive(ctx, in, humo.MethodHybrid, sessionConfig(humo.MethodHybrid, p.seeds[i]), tr, root, -1)
	if err != nil {
		return o, err
	}
	tr.end(root)
	dur := sw.lap()
	r, err := d.finish(in)
	if err != nil {
		return o, err
	}
	o.ops, o.busy, o.pairs, o.res = []lap{dur}, dur, len(cands), []resolution{r}
	return o, nil
}

// tracedGenerate is GenerateWorkload split at its layer boundaries —
// distinct-value weights and scorer (tokenize and intern), blocking and
// scoring, workload build, fingerprint — with a span and an allocation
// count around each public call.
func (p *pipeline) tracedGenerate(ctx context.Context, ta, tb *humo.Table, cfg humo.GenConfig, tr *tracer, root int) ([]humo.Candidate, *humo.Workload, string, error) {
	m0 := mallocs()
	sp := tr.begin("similarity.scorer", root)
	specs, err := blocking.DistinctValueSpecs(ta, tb, cfg.Specs)
	if err != nil {
		return nil, nil, "", err
	}
	scorer, err := blocking.NewScorer(ta, tb, specs)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	m1 := mallocs()
	tr.add("similarity.scorer_allocs", float64(m1-m0))

	opt := blocking.Options{
		Mode: cfg.Block, Attribute: cfg.BlockAttribute, MinShared: cfg.MinShared,
		Window: cfg.Window, Rows: cfg.Rows, Bands: cfg.Bands,
		Threshold: cfg.Threshold, Workers: cfg.Workers,
	}
	if p.damageFP {
		opt.Threshold += 0.05
	}
	m1 = mallocs()
	sp = tr.begin("blocking.generate", root)
	cands, err := blocking.Generate(ctx, scorer, opt)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	m2 := mallocs()
	tr.add("blocking.generate_allocs", float64(m2-m1))
	tr.add("blocking.candidates", float64(len(cands)))

	sp = tr.begin("core.workload", root)
	pairs := make([]humo.Pair, len(cands))
	for i, c := range cands {
		pairs[i] = humo.Pair{ID: i, Sim: c.Sim}
	}
	w, err := humo.NewWorkload(pairs, cfg.SubsetSize)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.begin("core.fingerprint", root)
	fp := humo.WorkloadFingerprint(w)
	tr.end(sp)
	return cands, w, fp, nil
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *pipeline) close() error { return nil }
