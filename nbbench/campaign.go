package main

import (
	"context"
	"encoding/json"

	"nanobench/internal/experiments"
)

// policyCampaign is the policy-campaign workload: each pass is one
// experiments.PolicyCampaign over every Table I model and level, with the
// adaptive models' age graphs, under the pass's inference seed.
type policyCampaign struct {
	seed int64
	par  int
}

func openPolicyCampaign(ctx context.Context, seed int64, par int) (instance, error) {
	w := &policyCampaign{seed: seed, par: par}
	return openPasses(ctx, w.pass)
}

func (w *policyCampaign) pass(ctx context.Context, i int, tr *tracer, parent int64) (outcome, []byte, error) {
	opt := experiments.CampaignOptions{Workers: w.par, Seed: passSeed(w.seed, i), AgeGraphs: true}
	n, err := experiments.CampaignSize(opt)
	if err != nil {
		return outcome{attempted: 1, failed: 1}, nil, err
	}
	o := outcome{attempted: n}
	id := tr.begin("experiments.policy_campaign", parent, int64(i))
	res, err := experiments.PolicyCampaign(ctx, opt, nil)
	tr.end(id)
	if err != nil {
		o.failed = n
		return o, nil, err
	}
	o.failed = n - len(res.Cells) - len(res.AgeRows)
	for _, c := range res.Cells {
		if !c.OK {
			o.failed++
		}
	}
	if o.failed == 0 {
		o.work = 1 // the unit is a whole, correct pass
	}
	if i != 0 {
		return o, nil, nil
	}
	body, err := json.Marshal(res)
	return o, body, err
}
