package surrogate

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
)

// Status of a registry record.
type Status string

const (
	// StatusBuilding: a fit/validate pass is in flight for the key.
	StatusBuilding Status = "building"
	// StatusAdmitted: the model beat its tolerance and is servable.
	StatusAdmitted Status = "admitted"
	// StatusRejected: validation failed the tolerance; Reason says why.
	// Rejected keys stay rejected (deterministic inputs rebuild the
	// same model) until evicted.
	StatusRejected Status = "rejected"
)

// Record is one registry entry: the admission outcome for a key, plus
// the model when admitted.
type Record struct {
	Key       string  `json:"key"`
	Status    Status  `json:"status"`
	Model     *Model  `json:"-"` // servable model (admitted only)
	Reason    string  `json:"reason,omitempty"`
	MaxRelErr float64 `json:"max_rel_err"`
	Tol       float64 `json:"tol"`
	// Spec echoes the build parameters (Meta carries the originating
	// config), so the serve tier can reconstruct the exact path for
	// fallback on non-admitted keys.
	Spec FitSpec `json:"spec"`
}

// Registry is the content-addressed surrogate store: a rescache
// instance of admission records — bounded memory LRU, single-flight
// builds, and an optional persistent disk tier that holds admitted
// models only. Safe for concurrent use.
type Registry struct {
	dir     string // persistent tier ("" disables)
	metrics *telemetry.Registry
	cache   *rescache.Cache[rescache.Key, *Record]

	hits, misses             *telemetry.Counter
	admitted, rejected       *telemetry.Counter
	evictions                *telemetry.Counter
	buildSeconds, evalObserv *telemetry.Histogram

	// building holds the spec of every in-flight build, so lookups and
	// List report it as StatusBuilding.
	mu       sync.Mutex
	building map[rescache.Key]FitSpec
}

const defaultCapacity = 64

// NewRegistry builds a registry holding up to capacity records in
// memory (default 64 when capacity ≤ 0); dir, when non-empty, enables
// the persistent tier for admitted models.
func NewRegistry(capacity int, dir string, m *telemetry.Registry) *Registry {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	evictions := m.Counter("surrogate.evictions")
	return &Registry{
		dir:     dir,
		metrics: m,
		// A distinct suffix keeps surrogate models recognizable next to
		// rescache point entries if an operator points both at one
		// directory.
		cache: rescache.MustNew[rescache.Key](capacity, rescache.Options[*Record]{
			Dir:    dir,
			Suffix: ".surrogate.json",
			Codec:  recordCodec(),
			Counters: &rescache.Counters{
				Shared:     m.Counter("surrogate.builds_shared"),
				Evictions:  evictions,
				DiskErrors: m.Counter("surrogate.disk_errors"),
				Entries:    m.Gauge("surrogate.entries"),
			},
		}),
		hits:         m.CounterL("surrogate.requests", telemetry.L("outcome", "hit")),
		misses:       m.CounterL("surrogate.requests", telemetry.L("outcome", "miss")),
		admitted:     m.CounterL("surrogate.admission", telemetry.L("outcome", "admitted")),
		rejected:     m.CounterL("surrogate.admission", telemetry.L("outcome", "rejected")),
		evictions:    evictions,
		buildSeconds: m.Histogram("surrogate.build_seconds"),
		evalObserv:   m.Histogram("surrogate.eval_seconds"),
		building:     map[rescache.Key]FitSpec{},
	}
}

// recordCodec persists admitted models only, as the model JSON of
// Encode/Decode. Any decode or shape failure (torn write predating the
// fsync discipline, schema bump) or a model filed under another key is
// a miss, never an error.
func recordCodec() rescache.Codec[*Record] {
	return rescache.Codec[*Record]{
		Encode: func(rec *Record) ([]byte, error) {
			if rec.Status != StatusAdmitted {
				return nil, nil
			}
			return Encode(rec.Model)
		},
		Decode: func(b []byte) (*Record, error) {
			model, err := Decode(b)
			if err != nil {
				return nil, err
			}
			key, err := rescache.ParseKey(model.Key)
			if err != nil {
				return nil, err
			}
			return &Record{
				Key:       model.Key,
				Status:    StatusAdmitted,
				Model:     model,
				MaxRelErr: model.MaxRelErr,
				Spec: FitSpec{
					Key:     key,
					FMinHz:  model.FMinHz,
					FMaxHz:  model.FMaxHz,
					Order:   model.Order,
					Anchors: len(model.XNodes),
					Meta:    model.Meta,
				},
			}, nil
		},
		Match: func(key rescache.Key, rec *Record) bool { return rec.Spec.Key == key },
	}
}

// ObserveEval feeds the serve-path latency histogram (the sub-ms p99
// the fast path is sized for).
func (r *Registry) ObserveEval(seconds float64) { r.evalObserv.Observe(seconds) }

// Len returns the number of memory-resident records.
func (r *Registry) Len() int { return r.cache.Len() }

// Get resolves key for the serve path, counting a hit only when an
// admitted model is present (memory first, then the persistent tier);
// anything else — absent, building, rejected, torn disk entry — counts
// as a miss the caller must fall back from.
func (r *Registry) Get(key rescache.Key) (*Record, bool) {
	rec, ok := r.Peek(key)
	if ok && rec.Status == StatusAdmitted {
		r.hits.Inc()
	} else {
		r.misses.Inc()
	}
	return rec, ok
}

// Peek is Get without touching the hit/miss accounting — the status
// and listing endpoints use it so polling does not skew serve metrics.
func (r *Registry) Peek(key rescache.Key) (*Record, bool) {
	// The build flag is checked first: a finishing build lands its
	// record before clearing the flag, so a key is never in neither.
	r.mu.Lock()
	spec, ok := r.building[key]
	r.mu.Unlock()
	if ok {
		return buildingRecord(spec), true
	}
	return r.cache.Get(key)
}

func buildingRecord(spec FitSpec) *Record {
	return &Record{Key: spec.Key.String(), Status: StatusBuilding, Tol: spec.Tol, Spec: spec}
}

// GetOrBuild returns the admission record for spec.Key, running the
// fit → validate → admit pipeline at most once across concurrent
// callers. An existing record (admitted or rejected, in memory or an
// admitted model on disk) is returned as is: builds are deterministic,
// so a rejected key is not retried until evicted. The build runs under
// the first caller's ctx.
func (r *Registry) GetOrBuild(ctx context.Context, src Source, spec FitSpec) (*Record, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	built := false
	rec, _, err := r.cache.GetOrCompute(ctx, spec.Key, func(ctx context.Context) (*Record, error) {
		built = true
		r.mu.Lock()
		r.building[spec.Key] = spec
		r.mu.Unlock()
		return r.build(ctx, src, spec)
	})
	if built {
		r.mu.Lock()
		delete(r.building, spec.Key)
		r.mu.Unlock()
	}
	return rec, err
}

// build runs the admission pipeline once: fit, validate, and the
// tolerance verdict.
func (r *Registry) build(ctx context.Context, src Source, spec FitSpec) (*Record, error) {
	start := time.Now()
	model, err := Fit(ctx, src, spec, r.metrics)
	if err != nil {
		return nil, err
	}
	maxErr, err := Validate(ctx, src, model, spec, r.metrics)
	if err != nil {
		return nil, err
	}
	r.buildSeconds.Observe(time.Since(start).Seconds())
	model.MaxRelErr = maxErr
	rec := &Record{Key: spec.Key.String(), MaxRelErr: maxErr, Tol: spec.Tol, Spec: spec}
	if maxErr > spec.Tol {
		rec.Status = StatusRejected
		rec.Reason = fmt.Sprintf("validation max relative error %.3g exceeds tolerance %.3g", maxErr, spec.Tol)
		r.rejected.Inc()
		return rec, nil
	}
	rec.Status = StatusAdmitted
	rec.Model = model
	r.admitted.Inc()
	return rec, nil
}

// List snapshots every memory-resident record, most recently used
// first, plus in-flight builds.
func (r *Registry) List() []*Record {
	r.mu.Lock()
	building := make([]FitSpec, 0, len(r.building))
	for _, spec := range r.building {
		building = append(building, spec)
	}
	r.mu.Unlock()
	out := r.cache.Values()
	listed := make(map[string]bool, len(out))
	for _, rec := range out {
		listed[rec.Key] = true
	}
	for _, spec := range building {
		// A build that finished since the snapshot is already listed.
		if !listed[spec.Key.String()] {
			out = append(out, buildingRecord(spec))
		}
	}
	return out
}

// Evict removes the record from the memory tier and deletes the
// persisted model, reporting whether anything was removed. An
// in-flight build is not interrupted (its record lands afterwards and
// can be evicted again).
func (r *Registry) Evict(key rescache.Key) bool {
	if !r.cache.Delete(key) {
		return false
	}
	r.evictions.Inc()
	return true
}
