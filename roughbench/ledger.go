package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"roughsim"
	"roughsim/internal/core"
	"roughsim/internal/fft"
	"roughsim/internal/journal"
	"roughsim/internal/mom"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// This file is the traced per-layer ledger: layer totals read from the
// program's telemetry registry and stage spans, self-time accounting of
// the benchmark's trace, and direct kernel measurements of the layers
// the ROADMAP ledger names (2-D FFT, FFT-operator matvec, journal
// append).

// solveStages are the resilient chain's stages, in chain order.
var solveStages = []string{mom.StageFFT, mom.StageGMRES, mom.StageGMRESPrecond, mom.StageBiCGSTAB, mom.StageDenseLU}

// stageKey is the registry series of one sweep.stage_seconds stage.
func stageKey(stage string) string { return `sweep.stage_seconds{stage="` + stage + `"}` }

// diffSnapshot returns b − a for counters and histogram counts and sums
// (the work done between two snapshots of one registry).
func diffSnapshot(a, b telemetry.Snapshot) telemetry.Snapshot {
	d := telemetry.Snapshot{Counters: map[string]int64{}, Histograms: map[string]telemetry.HistogramSnapshot{}}
	for k, v := range b.Counters {
		d.Counters[k] = v - a.Counters[k]
	}
	for k, h := range b.Histograms {
		p := a.Histograms[k]
		d.Histograms[k] = telemetry.HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
	}
	return d
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// stageMetrics fills the solver-side layer metrics from a registry
// snapshot. Stage times are inclusive and summed across workers: a flat
// reference contains its own operator build and solve.
func stageMetrics(m metricSet, s telemetry.Snapshot) {
	sum := func(k string) float64 { return s.Histograms[k].Sum }
	c := s.Counters
	m.set("mom.fft_build_s", sum(stageKey("mom.fft.build")), "s")
	m.set("mom.fft_admitted", float64(c["solve.fft_admitted"]), "count")
	m.set("mom.fft_rejected", float64(c["solve.fft_rejected"]), "count")
	m.set("mom.table_build_s", sum("tables.build_seconds"), "s")
	m.set("mom.table_builds", float64(c["tables.built"]), "count")
	reused := c["tables.hits"] + c["tables.shared"]
	m.set("mom.table_hit_ratio", ratio(reused, reused+c["tables.misses"]), "ratio")
	m.set("mom.assemble_s", sum(stageKey("mom.assemble")), "s")
	m.set("mom.assemble_count", float64(s.Histograms[stageKey("mom.assemble")].Count), "count")
	m.set("mom.solve_s", sum("solve.seconds"), "s")
	m.set("mom.solve_count", float64(c["solve.count"]), "count")
	var failed int64
	for k, v := range c {
		if strings.HasPrefix(k, "solve.stage_failure.") {
			failed += v
		}
	}
	m.set("mom.solve_failed_attempts", float64(failed), "count")
	for _, st := range solveStages {
		m.set("mom.solve_wins."+st, float64(c["solve.stage_win."+st]), "count")
	}
	m.set("core.flat_reference_s", sum(stageKey("flat.reference")), "s")
	m.set("surface.synthesize_s", sum(stageKey("sweep.synthesize")), "s")
	// The engine's per-frequency PC projection runs under the
	// "surrogate.fit" stage name.
	m.set("sscm.project_s", sum(stageKey("surrogate.fit")), "s")
	m.set("sweepengine.interp_s", sum(stageKey("sweep.interp")), "s")
}

// serviceLayersIdle sets the layers only the service reaches to zero on
// the sweep workloads, where the prediction for them is "no work".
func serviceLayersIdle(m metricSet) {
	for _, k := range []string{"surrogate.fit_s", "jobs.queue_wait_p50_s", "jobs.queue_wait_p90_s", "server.sweep_p90_s"} {
		m.set(k, 0, "s")
	}
	for _, k := range []string{"sparams.generate_ms", "server.k_p50_ms", "server.k_p99_ms", "server.sparams_p50_ms", "server.sparams_p90_ms"} {
		m.set(k, 0, "ms")
	}
	m.set("surrogate.eval_us", 0, "us")
	m.set("journal.appends", 0, "count")
	m.set("rescache.hit_ratio", 0, "ratio")
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (children of parallel workers overlap; the union
// counts once).
func selfTime(s *trace.SpanSummary) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(s.Children))
	end := s.StartSeconds + s.DurationSeconds
	for _, c := range s.Children {
		a, b := max(c.StartSeconds, s.StartSeconds), min(c.StartSeconds+c.DurationSeconds, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.DurationSeconds - covered
}

// selfTimes reports the self-time accounting of the subtree under the
// first span named top: the summed self time of every span in it
// (greater than the wall when workers run in parallel), and the gap —
// top's own self time, the wall time no layer span covers.
func selfTimes(m metricSet, tr *trace.Trace, top string) {
	sum := tr.Summary()
	var find func(*trace.SpanSummary) *trace.SpanSummary
	find = func(s *trace.SpanSummary) *trace.SpanSummary {
		if s.Name == top {
			return s
		}
		for _, c := range s.Children {
			if f := find(c); f != nil {
				return f
			}
		}
		return nil
	}
	root := find(sum.Spans)
	if root == nil {
		return
	}
	total, spans := 0.0, 0
	var walk func(*trace.SpanSummary)
	walk = func(s *trace.SpanSummary) {
		total += selfTime(s)
		spans++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	m.set("trace.self_sum_s", total, "s")
	m.set("trace.gap_s", selfTime(root), "s")
	m.set("trace.spans", float64(spans), "count")
	m.set("trace.spans_dropped", float64(sum.SpansDropped), "count")
}

// writeTrace keeps the run's span tree next to the other run outputs.
func writeTrace(o options, tr *trace.Trace) error {
	b, err := json.MarshalIndent(tr.Summary(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), b, 0o644)
}

// relresMax solves the first two non-flat collocation surfaces of cfg
// through the core solver's production prepare-and-solve path and
// returns the largest verified relative residual — the one solver
// output the facade does not expose.
func relresMax(ctx context.Context, sim *roughsim.Simulation, cfg roughsim.SweepConfig) (float64, error) {
	ctx, sp := trace.StartSpan(ctx, "bench.relres")
	defer sp.End()
	nodes, err := sscm.Nodes(sim.StochasticDim(), 1)
	if err != nil {
		return 0, err
	}
	L := cfg.Acc.PatchOverEta * cfg.Spec.Eta
	solver, err := core.NewSolverTabulated(core.Material{EpsR: cfg.Stack.EpsR, Rho: cfg.Stack.Rho},
		L, cfg.Acc.GridPerSide, 14*cfg.Spec.Sigma, mom.Options{})
	if err != nil {
		return 0, err
	}
	worst, solved := 0.0, 0
	for _, xi := range nodes {
		surf := sim.Surface(xi)
		if flat(surf) {
			continue
		}
		sys, err := solver.PrepareSurfaceCtx(ctx, surf, cfg.Freqs[0], 0)
		if err != nil {
			return 0, err
		}
		sol, err := solver.SolveSystem(ctx, sys)
		if err != nil {
			return 0, err
		}
		worst = max(worst, sol.Report.RelRes)
		if solved++; solved == 2 {
			break
		}
	}
	return worst, nil
}

func flat(s *surface.Surface) bool {
	for _, h := range s.H {
		if h != 0 {
			return false
		}
	}
	return true
}

// kernel is one directly measured layer call.
type kernel struct {
	perOp  time.Duration
	allocs float64 // heap allocations per call
	bytes  float64 // heap bytes per call
}

// measureKernel times fn in batches of at least batchDur each (after
// one warm-up call) and reports the median per-call time over the
// batches with the allocation counts of all of them.
func measureKernel(fn func(), batches int, batchDur time.Duration) kernel {
	fn()
	var per []float64
	var ms0, ms1 runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&ms0)
	for b := 0; b < batches; b++ {
		n := 0
		t := time.Now()
		for n == 0 || time.Since(t) < batchDur {
			fn()
			n++
		}
		per = append(per, float64(time.Since(t))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&ms1)
	return kernel{
		perOp:  time.Duration(median(per)),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(calls),
		bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(calls),
	}
}

// kernelLedger measures the FFT, FFT-operator and journal kernels
// directly. The sizes are the paper's: M=40 (Δ = η/8) and M=80.
func kernelLedger(o options, m metricSet) error {
	r := newRand(o.seed, streamKernel)
	for _, n := range []int{40, 80} {
		x := make([]complex128, n*n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		k := measureKernel(func() { fft.Forward2D(x, n, n) }, 5, 40*time.Millisecond)
		m.set(fmt.Sprintf("fft.forward2d_%d_us", n), float64(k.perOp)/1e3, "us")
		m.set(fmt.Sprintf("fft.forward2d_%d_allocs", n), k.allocs, "count")
		m.set(fmt.Sprintf("fft.forward2d_%d_bytes", n), k.bytes, "B")
	}
	for _, n := range []int{40, 80} {
		op, err := matvecOperator(r, n)
		if err != nil {
			return err
		}
		x := make([]complex128, 2*op.N)
		y := make([]complex128, 2*op.N)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		k := measureKernel(func() { op.MatVec(y, x) }, 3, 0)
		m.set(fmt.Sprintf("mom.fft_matvec_%d_ms", n), float64(k.perOp)/1e6, "ms")
		m.set(fmt.Sprintf("mom.fft_matvec_%d_alloc_mb", n), k.bytes/1e6, "MB")
		m.set(fmt.Sprintf("mom.fft_matvec_%d_allocs", n), k.allocs, "count")
	}
	ms, err := journalAppend(o, 20)
	if err != nil {
		return err
	}
	m.set("journal.append_ms", ms, "ms")
	return nil
}

// matvecOperator builds the production FFT operator (tabulated kernels,
// default order) of one σ = 5 nm Gaussian surface on an n×n grid of the
// paper's 5 µm patch at 5 GHz.
func matvecOperator(r *rand.Rand, n int) (*mom.FFTOperator, error) {
	const (
		L     = 5e-6
		sigma = 5e-9
		order = 6 // mom.Options' default FFTOrder
	)
	xi := make([]float64, 4)
	for i := range xi {
		xi[i] = r.NormFloat64()
	}
	surf := surface.NewKL(surface.NewGaussianCorr(sigma, 1e-6), L, n).Synthesize(xi)
	p := core.PaperMaterial().Params(5e9)
	ts := mom.NewTableSet(p, L, n, 14*sigma, mom.Options{})
	return mom.NewFFTOperatorTabulated(surf, p, ts, order, mom.Options{})
}

// journalAppend opens a fresh journal and returns the median latency in
// ms of n fsynced appends of the record a sweep submission writes.
func journalAppend(o options, n int) (float64, error) {
	dir, err := os.MkdirTemp(o.workDir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := newPoolSweep(newRand(o.seed, streamPool)).WithDefaults()
	raw, err := json.Marshal(cfg)
	if err != nil {
		return 0, err
	}
	j, _, err := journal.Open(filepath.Join(dir, "jobs.wal"), nil)
	if err != nil {
		return 0, err
	}
	lat := make([]float64, n)
	for i := range lat {
		t := time.Now()
		if err := j.Append(journal.Record{Op: journal.OpSubmitted, JobID: fmt.Sprintf("bench-%d", i), Key: cfg.Key().String(), Config: raw}); err != nil {
			j.Close()
			return 0, err
		}
		lat[i] = float64(time.Since(t)) / 1e6
	}
	return median(lat), j.Close()
}
