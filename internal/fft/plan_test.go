package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// exactDFT is the O(n²) reference along one axis: the stride sequences
// of x (element t of sequence q at x[q + t·stride]) are transformed with
// twiddles reduced to k·t mod n, so the reference itself is accurate to
// rounding. Inverse results are scaled by 1/n.
func exactDFT(x []complex128, n, stride int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for t := range w {
		w[t] = cmplx.Rect(1, sign*2*math.Pi*float64(t)/float64(n))
	}
	out := make([]complex128, len(x))
	for q := 0; q < stride; q++ {
		for k := 0; k < n; k++ {
			var s complex128
			for t := 0; t < n; t++ {
				s += x[q+t*stride] * w[k*t%n]
			}
			if inverse {
				s /= complex(float64(n), 0)
			}
			out[q+k*stride] = s
		}
	}
	return out
}

func norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// planSizes are the paper grids (40, 80), a length with the three prime
// factors 2, 3 and 5 (60), and primes that take the Bluestein plan.
var planSizes = []int{40, 80, 60, 41, 97}

// tightBound is the agreement a correct plan reaches against the exact
// DFT; a single wrong twiddle breaks it by orders of magnitude.
func tightBound(x []complex128, n int) float64 {
	return 1e-12 * norm2(x) * math.Log2(float64(n))
}

func TestPlansMatchExactDFT1D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range planSizes {
		x := randVec(rng, n)
		for _, inverse := range []bool{false, true} {
			got := Forward(x)
			if inverse {
				got = Inverse(x)
			}
			want := exactDFT(x, n, 1, inverse)
			if d := maxDiff(got, want); d > tightBound(x, n) {
				t.Errorf("n=%d inverse=%v: max diff %g > %g", n, inverse, d, tightBound(x, n))
			}
		}
	}
}

func TestPlansMatchExactDFT2D(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range planSizes {
		x := randVec(rng, n*n)
		for _, inverse := range []bool{false, true} {
			got := Forward2D(x, n, n)
			if inverse {
				got = Inverse2D(x, n, n)
			}
			// Rows (n sequences of stride 1), then columns (stride n).
			want := make([]complex128, n*n)
			for r := 0; r < n; r++ {
				copy(want[r*n:(r+1)*n], exactDFT(x[r*n:(r+1)*n], n, 1, inverse))
			}
			want = exactDFT(want, n, n, inverse)
			if d := maxDiff(got, want); d > tightBound(x, n) {
				t.Errorf("n=%d inverse=%v: max diff %g > %g", n, inverse, d, tightBound(x, n))
			}
		}
	}
}

func TestTransform2DToAliasesAndMatchesWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ny, nx := 12, 41
	x := randVec(rng, ny*nx)
	want := Forward2D(x, ny, nx)
	got := append([]complex128(nil), x...)
	Forward2DTo(got, got, make([]complex128, ny*nx), ny, nx)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("in-place Forward2DTo differs from Forward2D at %d", i)
		}
	}
	Inverse2DTo(got, got, make([]complex128, ny*nx), ny, nx)
	if d := maxDiff(got, x); d > tightBound(x, nx) {
		t.Fatalf("in-place round trip max diff %g", d)
	}
}

func TestPlansConcurrent(t *testing.T) {
	// Many lengths from many goroutines: plans are built and shared
	// concurrently, and every result is bitwise the sequential one.
	lengths := []int{7, 11, 13, 24, 40, 41, 45, 60, 64, 80, 97, 100, 101, 125}
	rng := rand.New(rand.NewSource(34))
	inputs := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = randVec(rng, n)
	}
	var wg sync.WaitGroup
	results := make([][][]complex128, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := make([][]complex128, len(lengths))
			for k := range lengths {
				i := (k + g) % len(lengths) // staggered first use per length
				res[i] = Inverse(Forward(inputs[i]))
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	for i, n := range lengths {
		want := Inverse(Forward(inputs[i]))
		for g := range results {
			for k := range want {
				if results[g][i][k] != want[k] {
					t.Fatalf("n=%d goroutine %d: concurrent result differs at %d", n, g, k)
				}
			}
		}
	}
}

func TestForward2DToAllocatesNothing(t *testing.T) {
	for _, n := range []int{40, 80} {
		x := randVec(rand.New(rand.NewSource(35)), n*n)
		dst := make([]complex128, n*n)
		scratch := make([]complex128, n*n)
		Forward2DTo(dst, x, scratch, n, n) // builds the plan
		if a := testing.AllocsPerRun(5, func() { Forward2DTo(dst, x, scratch, n, n) }); a != 0 {
			t.Errorf("n=%d: Forward2DTo allocates %v times per call", n, a)
		}
	}
}

var sink []complex128

func BenchmarkForward2D(b *testing.B) {
	for _, n := range []int{40, 80} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			x := randVec(rand.New(rand.NewSource(36)), n*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = Forward2D(x, n, n)
			}
		})
	}
}
