package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roughsim"
	"roughsim/internal/server"
	"roughsim/internal/sparams"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

const (
	// serviceSetups is how many times service-mix times its set-up
	// by default before reporting the median; the last server set up
	// serves the measured phase.
	serviceSetups = 2
	// serviceClients is the closed loop's client count.
	serviceClients = 2
	// serviceWorkers is the server's queue worker pool.
	serviceWorkers = 2
	// streamLen bounds the generated op stream; a run stops at the
	// measured-phase deadline long before it runs out.
	streamLen = 200000
	// opTimeout bounds one operation, so a wedged request fails instead
	// of hanging the run.
	opTimeout = 60 * time.Second
)

// service is one in-process roughsimd on loopback.
type service struct {
	srv    *server.Server
	reg    *telemetry.Registry
	base   string
	client *http.Client
	dir    string
	served chan error
	// surrogateKey is the admitted model every /k and sparams op uses.
	surrogateKey string
}

// startService starts a server with journal, disk cache and surrogate
// directory under dir and admits the set-up surrogate through
// POST /v1/surrogates.
func startService(ctx context.Context, dir string, sur roughsim.SurrogateConfig) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv, err := server.New(server.Config{
		Workers:      serviceWorkers,
		JournalPath:  filepath.Join(dir, "jobs.wal"),
		CacheDir:     filepath.Join(dir, "cache"),
		SurrogateDir: filepath.Join(dir, "surrogates"),
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	s := &service{
		srv:    srv,
		reg:    reg,
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}, Timeout: opTimeout},
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { s.served <- srv.Serve(l) }()

	var acc struct {
		Key string          `json:"key"`
		Job json.RawMessage `json:"job"`
	}
	code, body, err := s.do(ctx, "POST", "/v1/surrogates", sur)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/surrogates: %d %s", code, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &acc)
	}
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(acc.Job, &st)
	}
	if err == nil {
		_, err = s.await(ctx, "/v1/sweeps/"+st.ID)
	}
	if err == nil {
		var rec struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		code, body, err = s.do(ctx, "GET", "/v1/surrogates/"+acc.Key, nil)
		if err == nil && json.Unmarshal(body, &rec) == nil && (code != http.StatusOK || rec.Status != "admitted") {
			err = fmt.Errorf("surrogate %s not admitted: %d %s %s", acc.Key, code, rec.Status, rec.Reason)
		}
	}
	if err != nil {
		s.stop(ctx)
		return nil, err
	}
	s.surrogateKey = acc.Key
	return s, nil
}

// stop drains and closes the server, waits for its listener to return,
// and removes its directory.
func (s *service) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one JSON request and returns the status and body.
func (s *service) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobStatus is the part of the public job-status payload the benchmark
// reads.
type jobStatus struct {
	ID               string  `json:"id"`
	Status           string  `json:"status"`
	Error            string  `json:"error"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	Trace            *struct {
		Stages []trace.StageTotal `json:"stages"`
	} `json:"trace"`
}

// await polls a job-status path until the job is terminal, backing off
// from 1 ms to 10 ms, and returns the final status; a job that did not
// succeed is an error.
func (s *service) await(ctx context.Context, path string) (jobStatus, error) {
	wait := time.Millisecond
	for {
		code, body, err := s.do(ctx, "GET", path, nil)
		if err != nil {
			return jobStatus{}, err
		}
		var st jobStatus
		if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			return jobStatus{}, fmt.Errorf("GET %s: %d %s", path, code, body)
		}
		switch st.Status {
		case "succeeded":
			return st, nil
		case "failed", "canceled":
			return st, fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(wait):
		}
		wait = min(2*wait, 10*time.Millisecond)
	}
}

// mixStats collects the measured phase's per-kind latencies and the
// facts the correctness checks and the ledger need. Safe for concurrent
// use.
type mixStats struct {
	mu         sync.Mutex
	lat        map[opKind][]float64
	queueWaits []float64
	runSeconds float64 // summed job.run stage of sweep jobs
	repeats    int
	points     map[int][]byte // pool index → first result's points
	out        *outcome
}

func (st *mixStats) record(k opKind, seconds float64) {
	st.mu.Lock()
	st.lat[k] = append(st.lat[k], seconds)
	st.mu.Unlock()
}

func (st *mixStats) fail(format string, args ...any) {
	st.mu.Lock()
	st.out.fail(format, args...)
	st.mu.Unlock()
}

// runOp performs one op and checks its output; an error means the op
// failed.
func (s *service) runOp(ctx context.Context, in *serviceInputs, o op, st *mixStats) error {
	switch o.kind {
	case opK:
		code, body, err := s.do(ctx, "GET", "/k?"+url.Values{"key": {s.surrogateKey}, "f": {strconv.FormatFloat(o.freq, 'g', -1, 64)}}.Encode(), nil)
		if err != nil {
			return err
		}
		var k struct {
			Source string  `json:"source"`
			K      float64 `json:"k_swm"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &k) != nil || k.Source != "surrogate" {
			return fmt.Errorf("/k at %g Hz: %d %s", o.freq, code, body)
		}
		if !(k.K >= 1) || math.IsInf(k.K, 0) {
			return fmt.Errorf("/k at %g Hz: K=%v is not a finite loss factor ≥ 1", o.freq, k.K)
		}
		return nil
	case opSweep:
		code, body, err := s.do(ctx, "POST", "/v1/sweeps", in.pool[o.index])
		if err != nil {
			return err
		}
		var sub jobStatus
		if code != http.StatusAccepted || json.Unmarshal(body, &sub) != nil {
			return fmt.Errorf("POST /v1/sweeps: %d %s", code, body)
		}
		fin, err := s.await(ctx, "/v1/sweeps/"+sub.ID)
		if err != nil {
			return err
		}
		code, body, err = s.do(ctx, "GET", "/v1/sweeps/"+sub.ID+"/result", nil)
		if err != nil {
			return err
		}
		var res struct {
			Points json.RawMessage `json:"points"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &res) != nil {
			return fmt.Errorf("GET sweep result: %d %s", code, body)
		}
		var pts []roughsim.SweepPoint
		if err := json.Unmarshal(res.Points, &pts); err != nil || len(pts) != len(in.pool[o.index].Freqs) {
			return fmt.Errorf("sweep result has %d points, want %d (%v)", len(pts), len(in.pool[o.index].Freqs), err)
		}
		for _, p := range pts {
			if !(p.KSWM >= 1) || math.IsInf(p.KSWM, 0) {
				return fmt.Errorf("sweep point at %g Hz: K=%v is not a finite loss factor ≥ 1", p.FreqHz, p.KSWM)
			}
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.queueWaits = append(st.queueWaits, fin.QueueWaitSeconds)
		if fin.Trace != nil {
			for _, t := range fin.Trace.Stages {
				if t.Name == "job.run" {
					st.runSeconds += t.Seconds
				}
			}
		}
		if o.repeat {
			st.repeats++
		}
		if first, ok := st.points[o.index]; !ok {
			st.points[o.index] = res.Points
		} else if !bytes.Equal(first, res.Points) {
			return fmt.Errorf("repeated sweep config %d returned different points", o.index)
		}
		return nil
	case opSParams:
		cfg := in.sparams[o.index]
		code, body, err := s.do(ctx, "POST", "/v1/sparams", cfg)
		if err != nil {
			return err
		}
		if code == http.StatusAccepted {
			var acc struct {
				Key string    `json:"key"`
				Job jobStatus `json:"job"`
			}
			if json.Unmarshal(body, &acc) != nil {
				return fmt.Errorf("POST /v1/sparams: %s", body)
			}
			if _, err := s.await(ctx, "/v1/sparams/"+acc.Job.ID); err != nil {
				return err
			}
			code, body, err = s.do(ctx, "GET", "/v1/sparams/"+acc.Key, nil)
			if err != nil {
				return err
			}
		}
		var art sparams.Artifact
		if code != http.StatusOK || json.Unmarshal(body, &art) != nil {
			return fmt.Errorf("sparams artifact: %d %s", code, body)
		}
		if !art.Gates.PassivityOK || !art.Gates.CausalityOK || art.Source != "surrogate" || art.Points != sparamsPoints {
			return fmt.Errorf("sparams artifact %s: passive=%v causal=%v source=%q points=%d",
				art.Key, art.Gates.PassivityOK, art.Gates.CausalityOK, art.Source, art.Points)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// runMix drives the closed loop: serviceClients clients take the next
// op of the shared stream, each waiting for its reply, until the phase
// deadline. With a trace, each op runs under a client-side span.
func (s *service) runMix(ctx context.Context, in *serviceInputs, seconds float64, tr *trace.Trace, st *mixStats) {
	var next atomic.Int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(in.ops) {
					return
				}
				o := in.ops[i]
				var sp *trace.Span
				if tr != nil {
					sp = tr.Root().StartChild("bench." + o.kind.String())
				}
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				t := time.Now()
				err := s.runOp(octx, in, o, st)
				d := time.Since(t).Seconds()
				cancel()
				sp.End()
				st.mu.Lock()
				st.out.attempted++
				st.mu.Unlock()
				if err != nil {
					st.fail("%s op %d: %v", o.kind, i, err)
					continue
				}
				st.record(o.kind, d)
			}
		}()
	}
	wg.Wait()
}

// throughput is the closed loop's completed ops per second. With every
// client always waiting on a request, Little's law gives it as the
// client count over the mean latency of the completed ops; unlike a
// count of ops in the phase it does not move in steps of the ops a
// client completes per sweep, nor with where the deadline cuts a sweep.
func (st *mixStats) throughput() float64 {
	sum, n := 0.0, 0
	for _, lat := range st.lat {
		for _, d := range lat {
			sum += d
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return serviceClients * float64(n) / sum
}

// runService runs service-mix: o.setups timed set-ups, then the
// closed loop on the last server for o.seconds.
func runService(ctx context.Context, o options) (*outcome, error) {
	in := newServiceInputs(o.seed, streamLen)
	out := newOutcome()
	st := &mixStats{lat: map[opKind][]float64{}, points: map[int][]byte{}, out: out}
	if o.trace {
		return out, tracedService(ctx, o, &in, st)
	}

	var setups []float64
	var s *service
	for i := 0; i < max(o.setups, 1); i++ {
		if s != nil {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		s, err = startService(ctx, filepath.Join(o.workDir, fmt.Sprintf("service-%d-%d", o.seed, i)), in.surrogate)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	mw := watchMemory()
	s.runMix(ctx, &in, o.seconds, nil, st)
	alloc, peak, cycles := mw.finish()
	if err := s.stop(ctx); err != nil {
		return nil, err
	}

	done := len(st.lat[opK]) + len(st.lat[opSweep]) + len(st.lat[opSParams])
	if done == 0 {
		return nil, errors.New("service-mix completed no operation")
	}
	m := out.metrics
	m.set("setup_s", median(setups), "s")
	m.set("sweep_wall_s", median(st.lat[opSweep]), "s")
	m.set("ops_per_s", st.throughput(), "1/s")
	m.set("alloc_mb", float64(alloc)/1e6/float64(done), "MB")
	m.set("peak_live_heap_mb", peak, "MB")
	out.samples["setup_s"] = len(setups)
	out.samples["peak_live_heap_mb"] = cycles
	serviceDetail(out, st)
	return out, nil
}

// serviceDetail records the per-route latencies, their sample counts
// and the measured repeat share of the sweep pool.
func serviceDetail(out *outcome, st *mixStats) {
	k, sw, sp := st.lat[opK], st.lat[opSweep], st.lat[opSParams]
	out.samples["k"] = len(k)
	out.samples["sweep"] = len(sw)
	out.samples["sparams"] = len(sp)
	out.detail["k_p50_ms"] = 1e3 * median(k)
	out.detail["k_p99_ms"] = 1e3 * quantile(k, 0.99)
	out.detail["http_sweep_p50_s"] = median(sw)
	out.detail["http_sweep_p90_s"] = quantile(sw, 0.9)
	out.detail["sparams_p50_ms"] = 1e3 * median(sp)
	out.detail["sparams_p90_ms"] = 1e3 * quantile(sp, 0.9)
	if len(sw) > 0 {
		out.detail["sweep_repeat_share"] = float64(st.repeats) / float64(len(sw))
	}
}

// tracedService is the per-layer run of service-mix: one set-up, the
// closed loop with client-side spans, and the server's own telemetry
// and job-status stage rollups over the measured phase.
func tracedService(ctx context.Context, o options, in *serviceInputs, st *mixStats) error {
	out := st.out
	tr := trace.New(o.workload)
	_, sp := trace.StartSpan(trace.ContextWithSpan(ctx, tr.Root()), "bench.setup")
	s, err := startService(ctx, filepath.Join(o.workDir, fmt.Sprintf("service-%d-traced", o.seed)), in.surrogate)
	sp.End()
	if err != nil {
		return err
	}
	before := s.reg.Snapshot()
	mw := watchMemory()
	s.runMix(ctx, in, o.seconds, tr, st)
	alloc, _, _ := mw.finish()
	after := s.reg.Snapshot()
	if err := s.stop(ctx); err != nil {
		return err
	}
	tr.Finish()

	m := out.metrics
	d := diffSnapshot(before, after)
	stageMetrics(m, d)
	m.set("sweepengine.run_s", st.runSeconds, "s")
	m.set("sweepengine.anchors", float64(d.Counters["sweep.anchor_builds"]), "count")
	m.set("surrogate.fit_s", before.Histograms["surrogate.fit_seconds"].Sum, "s")
	ev, gen := d.Histograms["surrogate.eval_seconds"], d.Histograms["sparams.generate_seconds"]
	m.set("surrogate.eval_us", 1e6*ev.Sum/float64(max(ev.Count, 1)), "us")
	m.set("sparams.generate_ms", 1e3*gen.Sum/float64(max(gen.Count, 1)), "ms")
	m.set("journal.appends", float64(d.Counters["journal.appends"]), "count")
	hits, misses := d.Counters["cache.hits"], d.Counters["cache.misses"]
	m.set("rescache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("jobs.queue_wait_p50_s", median(st.queueWaits), "s")
	m.set("jobs.queue_wait_p90_s", quantile(st.queueWaits, 0.9), "s")
	k, sw, spr := st.lat[opK], st.lat[opSweep], st.lat[opSParams]
	m.set("server.k_p50_ms", 1e3*median(k), "ms")
	m.set("server.k_p99_ms", 1e3*quantile(k, 0.99), "ms")
	m.set("server.sweep_p90_s", quantile(sw, 0.9), "s")
	m.set("server.sparams_p50_ms", 1e3*median(spr), "ms")
	m.set("server.sparams_p90_ms", 1e3*quantile(spr, 0.9), "ms")
	done := len(k) + len(sw) + len(spr)
	m.set("trace.sweep_wall_s", median(sw), "s")
	m.set("trace.ops_per_s", st.throughput(), "1/s")
	m.set("trace.alloc_mb", float64(alloc)/1e6/float64(max(done, 1)), "MB")
	selfTimes(m, tr, "job")
	serviceDetail(out, st)

	spec, acc := surrogateSpec()
	cfg := roughsim.SweepConfig{Spec: spec, Acc: acc, Freqs: []float64{5e9}}.WithDefaults()
	sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
	if err != nil {
		return err
	}
	relres, err := relresMax(ctx, sim, cfg)
	if err != nil {
		return err
	}
	m.set("mom.solve_relres_max", relres, "ratio")
	if err := kernelLedger(o, m); err != nil {
		return err
	}
	return writeTrace(o, tr)
}
