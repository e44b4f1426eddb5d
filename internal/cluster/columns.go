package cluster

import (
	"context"

	"roughsim"
	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
)

// Columns is the worker-side column solver: it memoizes constructed
// simulations (KL modes are expensive) keyed by the frequency-
// independent part of the config and shares one Green's-function table
// cache across tasks — the worker's mirror of the server's simFor, so a
// worker grinding through one sweep's columns builds its solver state
// once. Distinct configs build concurrently.
type Columns struct {
	metrics *telemetry.Registry
	tables  *roughsim.TableCache
	sims    *rescache.Cache[rescache.Key, *roughsim.Simulation]
}

// simCacheCap bounds the memoized simulations.
const simCacheCap = 32

// NewColumns builds a solver pool publishing telemetry to m (nil
// disables it).
func NewColumns(m *telemetry.Registry) *Columns {
	if m == nil {
		m = telemetry.NewRegistry()
	}
	return &Columns{
		metrics: m,
		tables:  roughsim.NewTableCache(0, m),
		sims:    rescache.MustNew[rescache.Key](simCacheCap, rescache.Options[*roughsim.Simulation]{}),
	}
}

// Solve computes one claimed task's column.
func (c *Columns) Solve(ctx context.Context, t Task) ([]float64, error) {
	cfg := t.Config.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim, _, err := c.sims.GetOrCompute(ctx, cfg.KeyAt(1), func(context.Context) (*roughsim.Simulation, error) {
		sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
		if err != nil {
			return nil, err
		}
		return sim.WithMetrics(c.metrics).WithTableCache(c.tables), nil
	})
	if err != nil {
		return nil, err
	}
	return sim.SweepColumn(ctx, cfg.Freqs, t.Node, t.Ps)
}
