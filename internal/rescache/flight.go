package rescache

import (
	"context"
	"sync"

	"roughsim/internal/telemetry"
)

// flights tracks in-flight computations by key; its owner guards it
// with a mutex.
type flights[K comparable, V any] struct {
	calls map[K]*call[V]
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// join returns the in-flight call for key, registering a new one (and
// reporting leader) when there is none. Caller holds the owner's lock.
func (f *flights[K, V]) join(key K) (cl *call[V], leader bool) {
	if cl, ok := f.calls[key]; ok {
		return cl, false
	}
	if f.calls == nil {
		f.calls = map[K]*call[V]{}
	}
	cl = &call[V]{done: make(chan struct{})}
	f.calls[key] = cl
	return cl, true
}

// finish publishes the leader's outcome to every waiter.
func (cl *call[V]) finish(v V, err error) {
	cl.val, cl.err = v, err
	close(cl.done)
}

// wait blocks until the call finishes or ctx ends; shared reports that
// the value came from the call.
func (cl *call[V]) wait(ctx context.Context) (v V, shared bool, err error) {
	select {
	case <-cl.done:
		return cl.val, true, cl.err
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// Group is the cache's single-flight without the store: concurrent Do
// calls for one key share a single computation whose result is handed
// to its callers and then dropped. The zero value is ready to use.
type Group[K comparable, V any] struct {
	// Shared counts callers that joined another's computation (nil-safe).
	Shared *telemetry.Counter

	mu sync.Mutex
	flights[K, V]
}

// Do runs fn at most once across concurrent callers with the same key,
// under the first caller's ctx. A waiter whose own ctx ends stops
// waiting with its ctx error; the computation continues for the rest.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	g.mu.Lock()
	cl, leader := g.join(key)
	g.mu.Unlock()
	if !leader {
		g.Shared.Inc()
		v, _, err := cl.wait(ctx)
		return v, err
	}
	v, err := fn(ctx)
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	cl.finish(v, err)
	return v, err
}
