package main

import (
	"fmt"
	"math/rand/v2"

	"roughsim"
)

// Workload names.
const (
	wFFTPoint  = "fft-point"
	wBroadband = "broadband-sweep"
	wService   = "service-mix"
)

// Every input is drawn from a PCG stream of the run's seed; the stream
// number separates independent draws so adding one never shifts another.
const (
	streamVariant = 1
	streamOps     = 2
	streamPool    = 3
	streamKernel  = 4
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// sweepSpec fixes a sweep workload except for its RMS height, which the
// seed picks from the committed reference variants.
type sweepSpec struct {
	grid, dim int
	eta       float64
	freqs     []float64
	refs      []reference
	// minSweeps is the fewest sweeps a run measures: enough for a
	// median that hides the slower first sweep of a process.
	minSweeps int
}

// reference is one committed input variant and its K(f) (see refs.go).
type reference struct {
	SigmaM float64
	K      []float64
}

func sweepSpecFor(workload string) (sweepSpec, error) {
	switch workload {
	case wFFTPoint:
		// Paper resolution: M=40 (Δ = η/8, L = 5η), d=4, one point at
		// 5 GHz. σ of a few nm keeps every collocation surface inside the
		// FFT operator's admissibility gate.
		return sweepSpec{grid: 40, dim: 4, eta: 1e-6, freqs: []float64{5e9}, refs: fftPointRefs, minSweeps: 3}, nil
	case wBroadband:
		// The default service grid (M=16, below FFTMinCells) over a
		// 16-point 4–6 GHz band: the interpolated dense-anchor path.
		fs := make([]float64, 16)
		for i := range fs {
			fs[i] = 4e9 + 2e9*float64(i)/15
		}
		return sweepSpec{grid: 16, dim: 2, eta: 1e-6, freqs: fs, refs: broadbandRefs, minSweeps: 1}, nil
	}
	return sweepSpec{}, fmt.Errorf("no sweep workload %q", workload)
}

// config is the facade sweep for one RMS height.
func (s sweepSpec) config(sigma float64) roughsim.SweepConfig {
	return roughsim.SweepConfig{
		Spec:  roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: sigma, Eta: s.eta},
		Acc:   roughsim.Accuracy{GridPerSide: s.grid, StochasticDim: s.dim},
		Freqs: s.freqs,
	}.WithDefaults()
}

// pickVariant maps a seed to one committed reference variant.
func pickVariant(seed uint64, n int) int { return newRand(seed, streamVariant).IntN(n) }

// Service-mix shape. Ops come in blocks of 20: 17 /k reads, 2 sweep
// writes at fixed, evenly spaced positions and 1 sparams write at a
// seeded position. Every seed thus has the same mix and the same number
// of quick ops between two sweeps, which sets how many ops a client
// completes per sweep it waits for. Every third sweep write repeats an
// earlier config of the pool, the others are new. A repeat never names
// one of the inFlight most recent configs, which the clients may still
// be running, so it is a store hit: a join would wait out an
// unpredictable part of a solve and make the latency mix differ from
// seed to seed.
const (
	blockOps       = 20
	blockSweeps    = 2
	blockSParams   = 1
	repeatEvery    = 3
	inFlight       = 2
	serviceGrid    = 8
	serviceDim     = 2
	serviceFMin    = 1e9
	serviceFMax    = 10e9
	sweepFreqCount = 1
	sparamsPoints  = 64
)

type opKind int

const (
	opK opKind = iota
	opSweep
	opSParams
)

func (k opKind) String() string { return [...]string{"k", "sweep", "sparams"}[k] }

// op is one request of the service-mix stream.
type op struct {
	kind   opKind
	freq   float64 // opK: the queried frequency
	index  int     // opSweep: pool index; opSParams: sparams index
	repeat bool    // opSweep: the config was issued earlier in the stream
}

// serviceInputs is everything the service-mix run sends.
type serviceInputs struct {
	surrogate roughsim.SurrogateConfig
	pool      []roughsim.SweepConfig
	sparams   []roughsim.SParamConfig
	ops       []op
}

// surrogateSpec is the physics every /k read and sparams write resolves
// through: the admitted surrogate of the service-mix set-up.
func surrogateSpec() (roughsim.SurfaceSpec, roughsim.Accuracy) {
	return roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 1e-6, Eta: 1e-6},
		roughsim.Accuracy{GridPerSide: serviceGrid, StochasticDim: serviceDim}
}

// newServiceInputs generates the first n ops of the seed's stream and
// the configs they reference.
func newServiceInputs(seed uint64, n int) serviceInputs {
	spec, acc := surrogateSpec()
	in := serviceInputs{surrogate: roughsim.SurrogateConfig{
		Spec: spec, Acc: acc, FMinHz: serviceFMin, FMaxHz: serviceFMax,
	}}
	r := newRand(seed, streamOps)
	pr := newRand(seed, streamPool)
	sweeps := 0
	block := make([]opKind, 0, blockOps)
	for len(in.ops) < n {
		block = block[:0]
		for i := 0; i < blockOps; i++ {
			block = append(block, opK)
		}
		for i := 0; i < blockSweeps; i++ {
			block[i*blockOps/blockSweeps] = opSweep
		}
		for n := 0; n < blockSParams; {
			if i := r.IntN(blockOps); block[i] == opK {
				block[i] = opSParams
				n++
			}
		}
		for _, k := range block {
			o := op{kind: k}
			switch k {
			case opK:
				o.freq = serviceFMin + r.Float64()*(serviceFMax-serviceFMin)
			case opSweep:
				if sweeps%repeatEvery == repeatEvery-1 && len(in.pool) > inFlight {
					o.index, o.repeat = r.IntN(len(in.pool)-inFlight), true
				} else {
					o.index = len(in.pool)
					in.pool = append(in.pool, newPoolSweep(pr))
				}
				sweeps++
			case opSParams:
				o.index = len(in.sparams)
				in.sparams = append(in.sparams, newSParams(pr, spec, acc))
			}
			in.ops = append(in.ops, o)
		}
	}
	in.ops = in.ops[:n]
	return in
}

// newPoolSweep draws a new grid-8, d=2 sweep: its own RMS height (so its
// Green's tables are new) at sweepFreqCount in-band frequencies.
func newPoolSweep(r *rand.Rand) roughsim.SweepConfig {
	sigma := (0.6 + 0.8*r.Float64()) * 1e-6
	fs := make([]float64, sweepFreqCount)
	for i := range fs {
		fs[i] = serviceFMin + r.Float64()*(serviceFMax-serviceFMin)
	}
	return roughsim.SweepConfig{
		Spec:  roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: sigma, Eta: 1e-6},
		Acc:   roughsim.Accuracy{GridPerSide: serviceGrid, StochasticDim: serviceDim},
		Freqs: fs,
	}
}

// newSParams draws a new microstrip artifact over the surrogate band;
// its distinct length makes every request a generation job.
func newSParams(r *rand.Rand, spec roughsim.SurfaceSpec, acc roughsim.Accuracy) roughsim.SParamConfig {
	return roughsim.SParamConfig{
		Spec: spec,
		Acc:  acc,
		Line: roughsim.LineGeometry{
			WidthM:   (250 + 100*r.Float64()) * 1e-6,
			HeightM:  170e-6,
			EpsR:     4.1,
			TanDelta: 0.018,
		},
		LengthM: 0.01 + 0.04*r.Float64(),
		FMinHz:  serviceFMin,
		FMaxHz:  serviceFMax,
		Points:  sparamsPoints,
	}
}
