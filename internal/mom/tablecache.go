package mom

import (
	"context"
	"sync/atomic"
	"time"

	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// TableKey identifies one TableSet: every input NewTableSet folds into
// the tables. Options.Workers is deliberately excluded — it is an
// execution detail that never changes table content — so solvers with
// different parallelism budgets share entries.
type TableKey struct {
	P     Params
	L     float64
	M     int
	ZSpan float64
	Near  int
	Sub   int
}

// TableCache is the rescache instance of Green's-function table sets,
// shared across sweep frequencies, solvers and (in roughsimd) jobs:
// bounded LRU by table count, with single-flight builds that run
// outside the cache lock, so builds for distinct frequencies proceed in
// parallel.
//
// Telemetry goes to the registry given at construction (nil disables
// it): tables.hits / tables.misses / tables.shared / tables.built /
// tables.evictions counters, tables.build_seconds histogram,
// tables.entries gauge.
type TableCache struct {
	c       *rescache.Cache[TableKey, *TableSet]
	metrics *telemetry.Registry
	builds  atomic.Int64
}

// DefaultTableCacheCap bounds a cache built with capacity ≤ 0. Table
// sets are a few MB each at production grids, so the default keeps the
// worst case well under typical service memory.
const DefaultTableCacheCap = 32

// NewTableCache builds a cache holding up to capacity table sets
// (DefaultTableCacheCap when capacity ≤ 0).
func NewTableCache(capacity int, m *telemetry.Registry) *TableCache {
	if capacity <= 0 {
		capacity = DefaultTableCacheCap
	}
	return &TableCache{
		c: rescache.MustNew[TableKey](capacity, rescache.Options[*TableSet]{Counters: &rescache.Counters{
			Hits:      m.Counter("tables.hits"),
			Misses:    m.Counter("tables.misses"),
			Shared:    m.Counter("tables.shared"),
			Evictions: m.Counter("tables.evictions"),
			Entries:   m.Gauge("tables.entries"),
		}}),
		metrics: m,
	}
}

// Len returns the number of cached table sets.
func (c *TableCache) Len() int { return c.c.Len() }

// Builds returns how many table sets this cache has constructed — the
// quantity the dedup tests assert on (one build per distinct key, no
// matter how many concurrent callers).
func (c *TableCache) Builds() int64 { return c.builds.Load() }

// Get is GetCtx without a context; it cannot fail.
func (c *TableCache) Get(p Params, L float64, M int, zspan float64, opt Options) *TableSet {
	ts, _ := c.GetCtx(context.Background(), p, L, M, zspan, opt)
	return ts
}

// GetCtx returns the table set for the given assembly inputs, building
// it at most once across all concurrent callers. A build forced by a
// miss runs under a "tables.build" span of the context's trace (hits
// and shared waits add no span). The build itself is not cancellable;
// a waiter whose ctx ends stops waiting with the ctx error.
func (c *TableCache) GetCtx(ctx context.Context, p Params, L float64, M int, zspan float64, opt Options) (*TableSet, error) {
	opt = opt.withDefaults()
	key := TableKey{P: p, L: L, M: M, ZSpan: zspan, Near: opt.NearRadius, Sub: opt.NearSubdiv}
	ts, _, err := c.c.GetOrCompute(ctx, key, func(ctx context.Context) (*TableSet, error) {
		_, sp := trace.StartSpan(ctx, "tables.build")
		sp.SetAttr("grid", M)
		start := time.Now()
		ts := NewTableSet(p, L, M, zspan, opt)
		sp.End()
		c.builds.Add(1)
		c.metrics.Counter("tables.built").Inc()
		c.metrics.Histogram("tables.build_seconds").Observe(time.Since(start).Seconds())
		return ts, nil
	})
	return ts, err
}
