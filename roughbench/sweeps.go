package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"roughsim"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// setupRepeats is how many times a sweep workload times set-up
// (NewSimulation) before reporting the median.
const setupRepeats = 101

// refTol is the ROADMAP correctness gate: K within 1e-8 relative of the
// committed exact-path reference.
const refTol = 1e-8

// checkSweep returns why res is wrong for ref, or nil.
func checkSweep(res *roughsim.SweepResult, ref reference) error {
	if len(res.Points) != len(ref.K) {
		return fmt.Errorf("%d points, want %d", len(res.Points), len(ref.K))
	}
	for i, p := range res.Points {
		k := p.KSWM
		if math.IsNaN(k) || math.IsInf(k, 0) || k < 1 {
			return fmt.Errorf("point %d: K=%v is not a finite loss factor ≥ 1", i, k)
		}
		if d := math.Abs(k-ref.K[i]) / ref.K[i]; !(d <= refTol) {
			return fmt.Errorf("point %d: K=%.17g deviates %.3g from reference %.17g", i, k, d, ref.K[i])
		}
	}
	return nil
}

// runSweepWorkload runs fft-point or broadband-sweep: facade sweeps
// back to back, each checked against the seed variant's committed
// reference. A run measures spec.minSweeps sweeps, and more while the
// next one, judged by the last, would end within o.seconds. Starting
// one whenever the phase had time left made the count, and with it the
// median, jump with host speed: one or two broadband sweeps for a sweep
// time near o.seconds.
func runSweepWorkload(ctx context.Context, o options) (*outcome, error) {
	spec, err := sweepSpecFor(o.workload)
	if err != nil {
		return nil, err
	}
	v := pickVariant(o.seed, len(spec.refs))
	out, err := runSweeps(ctx, o, spec, spec.refs[v])
	if out != nil {
		out.detail["variant"] = v
	}
	return out, err
}

// runSweeps measures sweeps of spec at the reference's RMS height.
func runSweeps(ctx context.Context, o options, spec sweepSpec, ref reference) (*outcome, error) {
	cfg := spec.config(ref.SigmaM)
	out := newOutcome()
	out.detail["sigma_m"] = ref.SigmaM
	if o.trace {
		return out, tracedSweep(ctx, o, cfg, ref, out)
	}

	setups := make([]float64, setupRepeats)
	for i := range setups {
		t := time.Now()
		if _, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t).Seconds()
	}

	var walls []float64
	mw := watchMemory()
	start := time.Now()
	for len(walls) < max(spec.minSweeps, 1) || time.Since(start).Seconds()+walls[len(walls)-1] <= o.seconds {
		t := time.Now()
		res, err := roughsim.RunSweep(ctx, cfg)
		walls = append(walls, time.Since(t).Seconds())
		out.attempted++
		if err != nil {
			out.fail("sweep: %v", err)
		} else if err := checkSweep(res, ref); err != nil {
			out.fail("sweep: %v", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	alloc, peak, cycles := mw.finish()

	m := out.metrics
	m.set("setup_s", median(setups), "s")
	m.set("sweep_wall_s", median(walls), "s")
	m.set("ops_per_s", float64(len(walls))/elapsed, "1/s")
	m.set("alloc_mb", float64(alloc)/1e6/float64(len(walls)), "MB")
	m.set("peak_live_heap_mb", peak, "MB")
	out.samples["setup_s"] = len(setups)
	out.samples["sweep_wall_s"] = len(walls)
	out.samples["peak_live_heap_mb"] = cycles
	out.detail["sweep_walls_s"] = walls
	return out, nil
}

// tracedSweep is the per-layer run of a sweep workload: one sweep under
// the benchmark's trace, with the simulation's telemetry registry read
// afterwards, then the direct layer calls of the kernel ledger.
func tracedSweep(ctx context.Context, o options, cfg roughsim.SweepConfig, ref reference, out *outcome) error {
	reg := telemetry.NewRegistry()
	tr := trace.New(o.workload)
	ctx = trace.ContextWithSpan(ctx, tr.Root())

	_, sp := trace.StartSpan(ctx, "bench.setup")
	sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
	sp.End()
	if err != nil {
		return err
	}
	sim.WithMetrics(reg)

	mw := watchMemory()
	sctx, sp := trace.StartSpan(ctx, "bench.sweep")
	t := time.Now()
	res, err := sim.RunSweepBatched(sctx, cfg.Freqs)
	wall := time.Since(t).Seconds()
	sp.End()
	alloc, _, _ := mw.finish()
	out.attempted++
	if err != nil {
		out.fail("sweep: %v", err)
	} else if err := checkSweep(res, ref); err != nil {
		out.fail("sweep: %v", err)
	}
	tr.Finish()

	out.samples["sweep_wall_s"] = 1
	m := out.metrics
	snap := reg.Snapshot()
	stageMetrics(m, snap)
	m.set("sweepengine.run_s", wall, "s")
	m.set("sweepengine.anchors", float64(snap.Counters["sweep.anchor_builds"]), "count")
	m.set("trace.sweep_wall_s", wall, "s")
	m.set("trace.ops_per_s", 1/wall, "1/s")
	m.set("trace.alloc_mb", float64(alloc)/1e6, "MB")
	selfTimes(m, tr, "bench.sweep")

	relres, err := relresMax(ctx, sim, cfg)
	if err != nil {
		return err
	}
	m.set("mom.solve_relres_max", relres, "ratio")
	serviceLayersIdle(m)
	if err := kernelLedger(o, m); err != nil {
		return err
	}
	return writeTrace(o, tr)
}

// printReferences recomputes a sweep workload's committed references on
// the exact per-frequency path (Simulation.RunSweep, one frequency at a
// time) and prints them as the Go literal of refs.go.
func printReferences(ctx context.Context, workload string) error {
	spec, err := sweepSpecFor(workload)
	if err != nil {
		return err
	}
	fmt.Printf("// %s: exact per-frequency path\n", workload)
	for _, r := range spec.refs {
		cfg := spec.config(r.SigmaM)
		sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
		if err != nil {
			return err
		}
		t := time.Now()
		res, err := sim.RunSweep(ctx, cfg.Freqs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "σ=%g: %.1f s\n", r.SigmaM, time.Since(t).Seconds())
		fmt.Printf("{SigmaM: %g, K: []float64{", r.SigmaM)
		for i, p := range res.Points {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%.17g", p.KSWM)
		}
		fmt.Println("}},")
	}
	return nil
}
