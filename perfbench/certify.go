package main

import (
	"context"
	"fmt"

	"humo"
)

// certify is the certify-100k workload: prebuilt logistic workloads, each
// resolved by one risk-aware (r-HUMO) and one risk-corrected (c-HUMO)
// session to certification. Certificate math dominates and candidate
// generation is absent — the mirror of ds-pipeline. The op is one input's
// two sessions.
type certify struct {
	o      options
	n      int // inputs
	pairs  int // pairs per input
	ins    []*input
	seeds  []int64
	damage bool // tests: a one-label anytime budget stops both searches short
}

func newCertify(o options) bench {
	c := &certify{o: o, n: 400, pairs: 5000}
	if o.scale == "tiny" {
		c.n, c.pairs = 3, 4000
	}
	return c
}

func (c *certify) inputs() int { return c.n }

// logisticInput generates the paper's synthetic workload (Eq. 22, tau=14,
// sigma=0.1) for one input seed.
func logisticInput(n int, seed int64) (*input, error) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: n, Tau: 14, Sigma: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	pairs := make([]humo.Pair, len(labeled))
	t := make(truth, len(labeled))
	for i, lp := range labeled {
		pairs[i] = humo.Pair{ID: lp.ID, Sim: lp.Sim}
		t[lp.ID] = lp.Match
	}
	return newInput(pairs, t, 0)
}

// inputSeed derives input i's seed from the run seed.
func inputSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 1 }

func (c *certify) setup(_ context.Context, seed int64) error {
	for i := 0; i < c.n; i++ {
		s := inputSeed(seed, i)
		in, err := logisticInput(c.pairs, s)
		if err != nil {
			return err
		}
		c.ins = append(c.ins, in)
		c.seeds = append(c.seeds, s)
	}
	return nil
}

func (c *certify) resolve(ctx context.Context, i int, tr *tracer) (outcome, error) {
	in := c.ins[i]
	risk := sessionConfig(humo.MethodRisk, c.seeds[i])
	corr := sessionConfig(humo.MethodCorrect, c.seeds[i])
	corr.Correct.Labels = machineLabels(in)
	if c.damage {
		risk.Risk.BudgetPairs, corr.Correct.BudgetPairs = 1, 1
	}

	sw := startWatch()
	root := tr.begin("op", -1)
	dr, err := drive(ctx, in, humo.MethodRisk, risk, tr, root, -1)
	if err != nil {
		return outcome{}, err
	}
	dc, err := drive(ctx, in, humo.MethodCorrect, corr, tr, root, -1)
	if err != nil {
		return outcome{}, err
	}
	tr.end(root)
	d := sw.lap()

	o := outcome{ops: []lap{d}, busy: d, pairs: 2 * in.w.Len()}
	for _, s := range []*driven{dr, dc} {
		r, err := s.finish(in)
		if err != nil {
			return outcome{}, err
		}
		o.res = append(o.res, r)
	}
	if msg := checkCertified(dr.sess, dc.sess); msg != "" {
		o.bad = append(o.bad, fmt.Sprintf("input %d: %s", i, msg))
	}
	return o, nil
}

// machineLabels is the classifier output the corrected search verifies,
// the fixture of the repository's BenchmarkCorrectSchedule: the ground truth
// with every 17th label flipped, scored by similarity, so errors spread
// across the score range.
func machineLabels(in *input) []humo.CorrectLabel {
	labels := make([]humo.CorrectLabel, in.w.Len())
	for i := range labels {
		p := in.w.Pair(i)
		labels[i] = humo.CorrectLabel{ID: p.ID, Match: in.truth[p.ID] != (p.ID%17 == 0), Score: p.Sim}
	}
	return labels
}

// checkCertified requires both searches to have reached their certificate:
// the risk schedule converged and the corrected label set certified.
func checkCertified(risk, corr *humo.Session) string {
	if p, ok := risk.RiskProgress(); !ok || !p.Certified {
		return fmt.Sprintf("risk session did not certify (%+v)", p)
	}
	if p, ok := corr.CorrectProgress(); !ok || !p.Certified {
		return fmt.Sprintf("correct session did not certify (%+v)", p)
	}
	return ""
}

func (c *certify) close() error { return nil }
