package shard

import (
	"context"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// UpperBounds seeds (without relaxing) every facility's exploration on
// every shard of a captured epoch set and returns the summed initial
// upper bounds, indexed like facilities — each a sound overestimate of
// the facility's exact service value over the live corpus. ctx (nil
// means "never") is polled between facilities.
func (l *Live) UpperBounds(ctx context.Context, facilities []*trajectory.Facility, p Params) ([]float64, error) {
	eps := l.Epochs()
	if err := validate(eps, p); err != nil {
		return nil, err
	}
	out := make([]float64, len(facilities))
	for i, f := range facilities {
		if err := query.CtxErr(ctx); err != nil {
			return nil, err
		}
		for _, ep := range eps {
			ub, err := ep.UpperBound(f, p)
			if err != nil {
				return nil, err
			}
			out[i] += ub
		}
	}
	return out, nil
}
