package mom

import (
	"fmt"
	"sync"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/fft"
	"roughsim/internal/rng"
	"roughsim/internal/specfun"
	"roughsim/internal/units"
)

// referenceMatVec is the unfused operator application: separate S and D
// inverse transforms per (medium, l), every 2-D FFT through the
// allocating fft.Forward2D/Inverse2D. MatVec must agree with it to
// rounding.
func referenceMatVec(op *FFTOperator, y, x []complex128) {
	n, m := op.N, op.m
	psi, u := x[:n], x[n:2*n]
	weighted := func(v []complex128, q int, normal []float64) []complex128 {
		pv := make([]complex128, n)
		sign := 1.0
		if q%2 == 1 {
			sign = -1
		}
		for i := range pv {
			pv[i] = complex(sign*op.fpow[q][i], 0) * v[i]
			if normal != nil {
				pv[i] *= complex(normal[i], 0)
			}
		}
		return fft.Forward2D(pv, m, m)
	}
	srcs := make([][]complex128, op.Order+1)
	plain := make([][]complex128, op.Order+1)
	wx := make([][]complex128, op.Order+1)
	wy := make([][]complex128, op.Order+1)
	for q := 0; q <= op.Order; q++ {
		srcs[q] = weighted(u, q, nil)
		plain[q] = weighted(psi, q, nil)
		wx[q] = weighted(psi, q, op.jnx)
		wy[q] = weighted(psi, q, op.jny)
	}
	apply := func(term func(idx, l, q int) complex128) []complex128 {
		out := make([]complex128, n)
		for l := 0; l <= op.Order; l++ {
			acc := make([]complex128, n)
			for q := 0; l+q <= op.Order; q++ {
				b := complex(specfun.Binomial(l+q, l), 0)
				for idx := range acc {
					acc[idx] += b * term(idx, l, q)
				}
			}
			conv := fft.Inverse2D(acc, m, m)
			for i := range out {
				out[i] += conv[i] * complex(op.fpow[l][i], 0)
			}
		}
		return out
	}
	applyS := func(med int) []complex128 {
		sp := op.spec[med]
		return apply(func(idx, l, q int) complex128 { return sp.g[l+q][idx] * srcs[q][idx] })
	}
	applyD := func(med int) []complex128 {
		sp := op.spec[med]
		return apply(func(idx, l, q int) complex128 {
			return -(sp.gx[l+q][idx]*wx[q][idx] + sp.gy[l+q][idx]*wy[q][idx] + sp.gz[l+q][idx]*plain[q][idx])
		})
	}
	s1u, s2u, d1p, d2p := applyS(0), applyS(1), applyD(0), applyD(1)
	for i := 0; i < n; i++ {
		cv := complex(op.curv[i], 0)
		y[i] = 0.5*psi[i] - d1p[i] - cv*psi[i] + op.beta*(s1u[i]+op.diag1*u[i])
		y[n+i] = 0.5*psi[i] + d2p[i] + cv*psi[i] - s2u[i] - op.diag2*u[i]
	}
	win := 2*op.near + 1
	for i := 0; i < n; i++ {
		iy, ix := i/m, i%m
		for dyC := -op.near; dyC <= op.near; dyC++ {
			for dxC := -op.near; dxC <= op.near; dxC++ {
				j := ((iy-dyC)%m+m)%m*m + ((ix-dxC)%m+m)%m
				e := op.nearEntries[i*win*win+(dyC+op.near)*win+(dxC+op.near)]
				y[i] += -e.d1*psi[j] + op.beta*e.s1*u[j]
				y[i+n] += e.d2*psi[j] - e.s2*u[j]
			}
		}
	}
}

// matvecFixture builds the default-order operator on a mild M×M surface
// and a seeded input vector.
func matvecFixture(tb testing.TB, m int) (*FFTOperator, []complex128) {
	tb.Helper()
	s := mildSurface(m, 5*um, 0.02*um)
	op, err := NewFFTOperator(s, paramsAt(5*units.GHz), 6, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(5)
	x := make([]complex128, 2*op.N)
	for i := range x {
		x[i] = complex(src.NormFloat64(), src.NormFloat64())
	}
	return op, x
}

func TestFFTOperatorMatVecMatchesReference(t *testing.T) {
	sizes := []int{12, 40}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, m := range sizes {
		op, x := matvecFixture(t, m)
		got := make([]complex128, 2*op.N)
		want := make([]complex128, 2*op.N)
		op.MatVec(got, x)
		referenceMatVec(op, want, x)
		if d := cmplxmat.Norm2(cmplxmat.Sub(got, want)) / cmplxmat.Norm2(want); d > 1e-12 {
			t.Errorf("M=%d: fused MatVec deviates from the reference by %g", m, d)
		}
	}
}

func TestFFTOperatorMatVecAllocatesNothing(t *testing.T) {
	op, x := matvecFixture(t, 12)
	y := make([]complex128, 2*op.N)
	op.MatVec(y, x) // warm-up: builds the scratch and the FFT plans
	if a := testing.AllocsPerRun(5, func() { op.MatVec(y, x) }); a != 0 {
		t.Fatalf("MatVec allocates %v times per call", a)
	}
}

func TestFFTOperatorMatVecConcurrentBitwise(t *testing.T) {
	op, x := matvecFixture(t, 12)
	want := make([]complex128, 2*op.N)
	op.MatVec(want, x)
	var wg sync.WaitGroup
	got := [2][]complex128{}
	for g := range got {
		got[g] = make([]complex128, 2*op.N)
		wg.Add(1)
		go func(y []complex128) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				op.MatVec(y, x)
			}
		}(got[g])
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d: concurrent MatVec differs at %d", g, i)
			}
		}
	}
}

func BenchmarkFFTOperatorMatVec(b *testing.B) {
	for _, m := range []int{40, 80} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			op, x := matvecFixture(b, m)
			y := make([]complex128, 2*op.N)
			op.MatVec(y, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.MatVec(y, x)
			}
		})
	}
}
