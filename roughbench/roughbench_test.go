package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"roughsim"
)

func TestSameSeedSameOpStream(t *testing.T) {
	a, b := newServiceInputs(7, 600), newServiceInputs(7, 600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different op streams")
	}
	if c := newServiceInputs(8, 600); reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("seeds 7 and 8 produced the same op stream")
	}
	if pickVariant(7, 5) != pickVariant(7, 5) {
		t.Fatal("seed 7 picked two different sweep variants")
	}
}

func TestOpStreamShape(t *testing.T) {
	in := newServiceInputs(3, 60*blockOps)
	count := map[opKind]int{}
	repeats := 0
	for i, o := range in.ops {
		count[o.kind]++
		switch o.kind {
		case opK:
			if o.freq < serviceFMin || o.freq > serviceFMax {
				t.Fatalf("op %d: /k at %g Hz is outside the surrogate band", i, o.freq)
			}
		case opSweep:
			if o.repeat {
				repeats++
			}
			if err := in.pool[o.index].Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case opSParams:
			if err := in.sparams[o.index].WithDefaults().Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if count[opK] != 60*(blockOps-blockSweeps-blockSParams) || count[opSweep] != 60*blockSweeps || count[opSParams] != 60*blockSParams {
		t.Fatalf("mix %v is not 17:2:1 per block", count)
	}
	// The first repeat slot comes before the pool holds a finished config.
	if repeats != count[opSweep]/repeatEvery-1 {
		t.Fatalf("%d repeats in %d sweeps, want every %d-th but the first", repeats, count[opSweep], repeatEvery)
	}
}

// tinySpec is a grid-8 sweep small enough for a unit test; its
// reference comes from the exact per-frequency path.
func tinySpec(t *testing.T) (sweepSpec, reference) {
	t.Helper()
	spec := sweepSpec{grid: 8, dim: 2, eta: 1e-6, freqs: []float64{3e9, 4e9}}
	ref := reference{SigmaM: 0.5e-6}
	cfg := spec.config(ref.SigmaM)
	sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSweep(context.Background(), cfg.Freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		ref.K = append(ref.K, p.KSWM)
	}
	return spec, ref
}

func TestSweepSmoke(t *testing.T) {
	spec, ref := tinySpec(t)
	for _, traced := range []bool{false, true} {
		o := options{workload: "tiny", seed: 1, seconds: 0.01, trace: traced, workDir: t.TempDir()}
		out, err := runSweeps(context.Background(), o, spec, ref)
		if err != nil {
			t.Fatal(err)
		}
		if out.attempted < 1 || out.failed != 0 {
			t.Fatalf("trace=%v: %d of %d operations failed", traced, out.failed, out.attempted)
		}
		checkMetricNames(t, out.metrics, traced)
	}
}

// checkMetricNames fails unless m holds exactly the metrics
// BENCHMARK.json declares for the mode, each with its declared unit.
func checkMetricNames(t *testing.T, m metricSet, traced bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	want := bench.EndToEnd
	if traced {
		want = bench.PerLayer
	}
	for _, d := range want {
		if got, ok := m[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, d.Name, got, d.Unit)
		}
	}
	if len(m) != len(want) {
		t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", traced, len(m), len(want))
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	spec, ref := tinySpec(t)
	ref.K[1] *= 1 + 1e-7
	o := options{workload: "tiny", seed: 1, seconds: 0.01, workDir: t.TempDir()}
	out, err := runSweeps(context.Background(), o, spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted < 1 || out.failed != out.attempted {
		t.Fatalf("perturbed reference: %d of %d operations failed, want all", out.failed, out.attempted)
	}
}

func TestCommittedReferencesCoverVariants(t *testing.T) {
	for _, w := range []string{wFFTPoint, wBroadband} {
		spec, err := sweepSpecFor(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range spec.refs {
			if len(r.K) != len(spec.freqs) {
				t.Fatalf("%s σ=%g: %d reference points for %d frequencies", w, r.SigmaM, len(r.K), len(spec.freqs))
			}
		}
	}
}

func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a surrogate")
	}
	for _, traced := range []bool{false, true} {
		o := options{workload: wService, seed: 1, seconds: 1, setups: 1, trace: traced, workDir: t.TempDir()}
		out, err := runService(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if out.attempted < 1 || out.failed != 0 {
			t.Fatalf("trace=%v: %d of %d operations failed", traced, out.failed, out.attempted)
		}
		if out.samples["k"] == 0 {
			t.Fatalf("trace=%v: no /k read completed", traced)
		}
		checkMetricNames(t, out.metrics, traced)
	}
}
