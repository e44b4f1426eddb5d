// Package rescache is roughsim's one cache. Every reuse the solver and
// the service tier rely on runs through Cache[K, V]: the service's
// content-addressed sweep points, checkpoint columns and S-parameter
// artifacts, the per-frequency Green's-function tables and flat-surface
// references of the solver, the surrogate registry's models, and the
// memoized simulations. A cache has two tiers:
//
//   - an in-memory LRU holding decoded values, sized in entries;
//   - an optional on-disk tier (one codec file per key, written
//     atomically via rename), surviving process restarts. It is keyed
//     by content address (Key, the SHA-256 of a canonical binary
//     encoding — see Enc).
//
// Concurrent requests for the same key are single-flighted: one caller
// computes, the rest wait and share the result, so a burst of identical
// requests costs one computation. Group is the same single-flight for
// results that must not be stored. Hit/miss/eviction and single-flight
// sharing counts are published through caller-named telemetry series.
package rescache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"roughsim/internal/telemetry"
)

// Codec (de)serializes values for the disk tier.
type Codec[V any] struct {
	// Encode may return a nil slice to keep a value memory-only.
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
	// Match, when set, rejects a decoded value that does not belong to
	// the key it was filed under (a moved file); such an entry counts
	// as corrupt.
	Match func(Key, V) bool
}

// JSONCodec is the encoding/json codec for V. encoding/json prints
// float64s in their shortest round-trip form, so values reload
// bit-exactly.
func JSONCodec[V any]() Codec[V] {
	return Codec[V]{
		Encode: func(v V) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (V, error) {
			var v V
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

// Counters is a cache's telemetry. Every field is nil-safe, so a cache
// publishes only the series its owner names.
type Counters struct {
	Hits, Misses, DiskHits, Shared     *telemetry.Counter
	Evictions, DiskErrors, Quarantined *telemetry.Counter
	Entries                            *telemetry.Gauge
}

// Series returns the standard set under prefix on r: <prefix>.hits,
// .misses, .disk_hits, .singleflight_shared, .evictions, .disk_errors,
// .quarantined and the .entries gauge.
func Series(r *telemetry.Registry, prefix string) Counters {
	return Counters{
		Hits:        r.Counter(prefix + ".hits"),
		Misses:      r.Counter(prefix + ".misses"),
		DiskHits:    r.Counter(prefix + ".disk_hits"),
		Shared:      r.Counter(prefix + ".singleflight_shared"),
		Evictions:   r.Counter(prefix + ".evictions"),
		DiskErrors:  r.Counter(prefix + ".disk_errors"),
		Quarantined: r.Counter(prefix + ".quarantined"),
		Entries:     r.Gauge(prefix + ".entries"),
	}
}

// Options configures optional cache behavior.
type Options[V any] struct {
	// Dir enables the disk tier when non-empty; the directory is
	// created on first write. Requires a Codec and Key keys.
	Dir string
	// Suffix follows the key's hex form in disk file names (default
	// ".json").
	Suffix string
	// Codec encodes values to/from the disk tier.
	Codec Codec[V]
	// Metrics receives the Series under Prefix (default "cache"); nil
	// disables instrumentation.
	Metrics *telemetry.Registry
	Prefix  string
	// Counters, when non-nil, replaces the Metrics series with
	// caller-named ones.
	Counters *Counters
}

// Cache is a two-tier single-flight cache, safe for concurrent use.
type Cache[K comparable, V any] struct {
	capacity int
	opt      Options[V]
	m        Counters

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
	flights[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding up to capacity entries in memory.
func New[K comparable, V any](capacity int, opt Options[V]) (*Cache[K, V], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("rescache: capacity must be positive (got %d)", capacity)
	}
	if opt.Dir != "" {
		if opt.Codec.Encode == nil || opt.Codec.Decode == nil {
			return nil, fmt.Errorf("rescache: disk tier %q needs a codec", opt.Dir)
		}
		if _, ok := any(*new(K)).(Key); !ok {
			return nil, fmt.Errorf("rescache: disk tier %q needs rescache.Key keys", opt.Dir)
		}
		if opt.Suffix == "" {
			opt.Suffix = ".json"
		}
	}
	m := Series(opt.Metrics, "cache")
	if opt.Prefix != "" {
		m = Series(opt.Metrics, opt.Prefix)
	}
	if opt.Counters != nil {
		m = *opt.Counters
	}
	return &Cache[K, V]{
		capacity: capacity,
		opt:      opt,
		m:        m,
		ll:       list.New(),
		items:    map[K]*list.Element{},
	}, nil
}

// MustNew is New for a configuration fixed in code; it panics on error.
func MustNew[K comparable, V any](capacity int, opt Options[V]) *Cache[K, V] {
	c, err := New[K, V](capacity, opt)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of entries in the memory tier.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Values snapshots the memory tier, most recently used first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}

// memLocked probes the memory tier, refreshing recency. Caller holds c.mu.
func (c *Cache[K, V]) memLocked(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Get probes the memory tier, then the disk tier, without computing.
// A disk hit is promoted into the memory tier. The batched sweep path
// uses Get to split a sweep into cached and missing points before
// handing the missing ones to the engine as one unit.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	v, ok := c.memLocked(key)
	c.mu.Unlock()
	if ok {
		c.m.Hits.Inc()
		return v, true
	}
	if v, ok := c.readDisk(key); ok {
		c.mu.Lock()
		c.insertLocked(key, v)
		c.mu.Unlock()
		return v, true
	}
	c.m.Misses.Inc()
	return v, false
}

// Put inserts a computed value into the memory tier (and the disk tier
// when enabled), as if GetOrCompute had computed it.
func (c *Cache[K, V]) Put(key K, v V) {
	c.writeDisk(key, v)
	c.mu.Lock()
	c.insertLocked(key, v)
	c.mu.Unlock()
}

// GetOrCompute returns the value for key, computing it at most once
// across all concurrent callers. cached reports whether the value came
// from a tier or a shared in-flight computation rather than this
// caller's own compute. Errors are never cached: every waiter of a
// failed computation receives the error and the next request recomputes.
//
// The computation runs under the first caller's ctx; a waiter whose own
// ctx expires stops waiting with its ctx error while the computation
// (and the other waiters) continue unaffected.
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, key K, compute func(context.Context) (V, error)) (v V, cached bool, err error) {
	c.mu.Lock()
	if v, ok := c.memLocked(key); ok {
		c.mu.Unlock()
		c.m.Hits.Inc()
		return v, true, nil
	}
	cl, leader := c.join(key)
	c.mu.Unlock()
	if !leader {
		c.m.Shared.Inc()
		return cl.wait(ctx)
	}
	c.m.Misses.Inc()

	v, cached = c.readDisk(key)
	if !cached {
		if v, err = compute(ctx); err == nil {
			c.writeDisk(key, v)
		}
	}
	c.mu.Lock()
	delete(c.calls, key)
	if err == nil {
		c.insertLocked(key, v)
	}
	c.mu.Unlock()
	cl.finish(v, err)
	return v, cached, err
}

// insertLocked adds the value to the memory tier, evicting from the
// back past capacity. Caller holds c.mu.
func (c *Cache[K, V]) insertLocked(key K, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[K, V]).key)
		c.m.Evictions.Inc()
	}
	c.m.Entries.Set(float64(c.ll.Len()))
}

// Delete removes key from both tiers, reporting whether either held
// it. The durable-sweep path uses it to purge consumed per-node
// checkpoints once a job's final result is itself durably cached, so
// checkpoint space is bounded by in-flight work rather than history.
func (c *Cache[K, V]) Delete(key K) bool {
	c.mu.Lock()
	el, removed := c.items[key]
	if removed {
		c.ll.Remove(el)
		delete(c.items, key)
		c.m.Entries.Set(float64(c.ll.Len()))
	}
	c.mu.Unlock()
	if c.opt.Dir != "" {
		switch err := os.Remove(c.path(key)); {
		case err == nil:
			removed = true
		case !os.IsNotExist(err):
			c.m.DiskErrors.Inc()
		}
	}
	return removed
}

func (c *Cache[K, V]) path(key K) string {
	return filepath.Join(c.opt.Dir, c.name(key))
}

// name is the disk file name of key; New admits a disk tier only for
// Key keys.
func (c *Cache[K, V]) name(key K) string {
	return any(key).(Key).String() + c.opt.Suffix
}

var errMismatch = errors.New("rescache: entry filed under another key")

// readDisk loads key from the disk tier (a miss when disabled). An
// entry that fails to decode falls through to recompute (and rewrite).
func (c *Cache[K, V]) readDisk(key K) (V, bool) {
	var zero V
	if c.opt.Dir == "" {
		return zero, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return zero, false
	}
	v, err := c.opt.Codec.Decode(b)
	if err == nil && c.opt.Codec.Match != nil && !c.opt.Codec.Match(any(key).(Key), v) {
		err = errMismatch
	}
	if err != nil {
		c.quarantine(key)
		return zero, false
	}
	c.m.DiskHits.Inc()
	return v, true
}

// quarantine moves a disk entry that failed to decode aside (same name
// with a ".quarantine" suffix, atomically, clobbering any previous
// quarantined generation) instead of deleting it: the entry stops being
// served and stops failing every probe, but the bytes stay available
// for a post-mortem. Rename-aside also self-heals the cache — the next
// compute rewrites the slot through the atomic write path.
func (c *Cache[K, V]) quarantine(key K) {
	c.m.DiskErrors.Inc() // corruption is a disk error whether or not the rename lands
	src := c.path(key)
	if err := os.Rename(src, src+".quarantine"); err != nil {
		return
	}
	c.m.Quarantined.Inc()
}

// writeDisk persists one value atomically (temp file + fsync + rename,
// see WriteFileAtomic), so a crash mid-write never leaves a truncated
// entry for readDisk to trust. A no-op without a disk tier or when the
// codec keeps the value memory-only.
func (c *Cache[K, V]) writeDisk(key K, v V) {
	if c.opt.Dir == "" {
		return
	}
	b, err := c.opt.Codec.Encode(v)
	if err == nil && b != nil {
		err = WriteFileAtomic(c.opt.Dir, c.name(key), b)
	}
	if err != nil {
		c.m.DiskErrors.Inc()
	}
}
