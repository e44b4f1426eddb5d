package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Rect(1, ang)
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Lengths of 2, 3 and 5 factors take mixed-radix plans; 7 and 33
	// take Bluestein plans.
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 15, 33, 100} {
		x := randVec(rng, n)
		got := Forward(x)
		want := naiveDFT(x, false)
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(130)
		x := randVec(rng, n)
		y := Inverse(Forward(x))
		return maxDiff(x, y) <= 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{16, 37, 128} {
		x := randVec(rng, n)
		fx := Forward(x)
		var ex, ef float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		if math.Abs(ef-float64(n)*ex)/(float64(n)*ex) > 1e-10 {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, ef, float64(n)*ex)
		}
	}
}

func TestDeltaFunctionTransform(t *testing.T) {
	// DFT of a delta at 0 is all-ones.
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	fx := Forward(x)
	for i, v := range fx {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform bin %d = %v, want 1", i, v)
		}
	}
}

func TestForward2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ny, nx := 6, 10
	x := randVec(rng, ny*nx)
	got := Forward2D(x, ny, nx)
	// Naive 2D.
	want := make([]complex128, ny*nx)
	for ky := 0; ky < ny; ky++ {
		for kx := 0; kx < nx; kx++ {
			var s complex128
			for jy := 0; jy < ny; jy++ {
				for jx := 0; jx < nx; jx++ {
					ang := -2 * math.Pi * (float64(ky*jy)/float64(ny) + float64(kx*jx)/float64(nx))
					s += x[jy*nx+jx] * cmplx.Rect(1, ang)
				}
			}
			want[ky*nx+kx] = s
		}
	}
	if d := maxDiff(got, want); d > 1e-8 {
		t.Fatalf("2D FFT max diff %g", d)
	}
}

func TestInverse2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ny, nx := 12, 20
	x := randVec(rng, ny*nx)
	y := Inverse2D(Forward2D(x, ny, nx), ny, nx)
	if d := maxDiff(x, y); d > 1e-9 {
		t.Fatalf("2D round trip max diff %g", d)
	}
}

func TestCyclicConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{4, 9, 16, 31} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		got := CyclicConvolve(a, b)
		want := make([]complex128, n)
		for k := 0; k < n; k++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a[j] * b[((k-j)%n+n)%n]
			}
			want[k] = s
		}
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: convolution max diff %g", n, d)
		}
	}
}

func TestCyclicConvolve2D(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ny, nx := 5, 7
	a := randVec(rng, ny*nx)
	b := randVec(rng, ny*nx)
	got := CyclicConvolve2D(a, b, ny, nx)
	want := make([]complex128, ny*nx)
	for ky := 0; ky < ny; ky++ {
		for kx := 0; kx < nx; kx++ {
			var s complex128
			for jy := 0; jy < ny; jy++ {
				for jx := 0; jx < nx; jx++ {
					iy := ((ky-jy)%ny + ny) % ny
					ix := ((kx-jx)%nx + nx) % nx
					s += a[jy*nx+jx] * b[iy*nx+ix]
				}
			}
			want[ky*nx+kx] = s
		}
	}
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("2D convolution max diff %g", d)
	}
}

func TestLinearity(t *testing.T) {
	f := func(seed int64, ar, ai float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		alpha := complex(math.Mod(ar, 3), math.Mod(ai, 3))
		x := randVec(rng, n)
		y := randVec(rng, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = alpha*x[i] + y[i]
		}
		fz := Forward(z)
		fx := Forward(x)
		fy := Forward(y)
		for i := range fz {
			if cmplx.Abs(fz[i]-(alpha*fx[i]+fy[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
