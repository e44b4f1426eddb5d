// Package fft implements the fast Fourier transforms used for spectral
// surface synthesis and for the FFT-accelerated MoM matrix-vector
// product.
//
// Every length is served by a plan built once and cached for the life of
// the process. A length whose prime factors are all 2, 3 or 5 gets a
// mixed-radix Stockham plan (radix-4, 2, 3 and 5 butterflies) with every
// twiddle factor precomputed from its exact angle; any other length gets
// a Bluestein plan whose chirp and transformed chirp kernel are computed
// once and whose inner convolution runs on a power-of-two mixed-radix
// plan. Forward2DTo/Inverse2DTo transform into a caller buffer with
// caller scratch and allocate nothing once the plans exist; Forward,
// Inverse, Forward2D, Inverse2D and CyclicConvolve* are allocating
// wrappers over the same plans.
//
// Conventions: Forward computes X[k] = Σ_n x[n]·exp(−2πi·kn/N) (no
// scaling); Inverse divides by N so Inverse(Forward(x)) == x.
package fft

import (
	"math"
	"math/cmplx"
	"sync"
)

// plan transforms `stride` interleaved sequences of one length n: the
// t-th element of sequence q sits at x[q + t·stride]. stride = 1 is a
// single contiguous sequence; stride = nx is every column of an ny×nx
// row-major array at once.
type plan struct {
	stages []stage    // mixed-radix plan; empty for n ≤ 1 or Bluestein
	blue   *bluestein // non-nil when n has a prime factor above 5
}

// stage is one Stockham pass: sub-transforms of length span = radix·m,
// with the twiddles w^(p·j), w = exp(∓2πi/span), stored at
// tw[p·(radix−1) + j−1] for p < m and 1 ≤ j < radix.
type stage struct {
	radix, m int
	fwd, inv []complex128
}

var plans = struct {
	sync.Mutex
	m map[int]*plan
}{m: map[int]*plan{}}

// planFor returns the cached plan for length n, building it on first
// use. Plans are immutable once built, so concurrent callers share them.
// The cache holds O(n) memory per distinct length and is never pruned:
// the program transforms a handful of grid lengths.
func planFor(n int) *plan {
	plans.Lock()
	p, ok := plans.m[n]
	plans.Unlock()
	if ok {
		return p
	}
	p = newPlan(n)
	plans.Lock()
	if q, ok := plans.m[n]; ok {
		p = q
	} else {
		plans.m[n] = p
	}
	plans.Unlock()
	return p
}

// radices factors n into the Stockham stage radices (4s first, then 2,
// 3, 5). ok is false when n has a prime factor above 5.
func radices(n int) (rs []int, ok bool) {
	for n%4 == 0 {
		rs, n = append(rs, 4), n/4
	}
	for _, r := range []int{2, 3, 5} {
		for n%r == 0 {
			rs, n = append(rs, r), n/r
		}
	}
	return rs, n == 1
}

func newPlan(n int) *plan {
	p := &plan{}
	if n <= 1 {
		return p
	}
	rs, ok := radices(n)
	if !ok {
		p.blue = newBluestein(n)
		return p
	}
	span := n
	for _, r := range rs {
		m := span / r
		st := stage{radix: r, m: m,
			fwd: make([]complex128, m*(r-1)),
			inv: make([]complex128, m*(r-1))}
		for q := 0; q < m; q++ {
			for j := 1; j < r; j++ {
				s, c := math.Sincos(2 * math.Pi * float64(q*j) / float64(span))
				st.fwd[q*(r-1)+j-1] = complex(c, -s)
				st.inv[q*(r-1)+j-1] = complex(c, s)
			}
		}
		p.stages = append(p.stages, st)
		span = m
	}
	return p
}

// transform runs the unscaled DFT (inverse: the conjugate-sign DFT) of
// the stride interleaved sequences in x, in place. work must hold
// len(x) = n·stride elements; its contents are clobbered.
func (p *plan) transform(x, work []complex128, stride int, inverse bool) {
	if p.blue != nil {
		p.blue.transform(x, stride, inverse)
		return
	}
	src, dst := x, work[:len(x)]
	s := stride
	for i := range p.stages {
		st := &p.stages[i]
		tw, sgn := st.fwd, -1.0
		if inverse {
			tw, sgn = st.inv, 1.0
		}
		switch st.radix {
		case 2:
			pass2(dst, src, tw, st.m, s)
		case 3:
			pass3(dst, src, tw, st.m, s, sgn)
		case 4:
			pass4(dst, src, tw, st.m, s, sgn)
		case 5:
			pass5(dst, src, tw, st.m, s, sgn)
		}
		src, dst = dst, src
		s *= st.radix
	}
	if len(p.stages)%2 == 1 {
		copy(x, src)
	}
}

// scale returns c·z with real c, in two real products.
func scale(c float64, z complex128) complex128 {
	return complex(c*real(z), c*imag(z))
}

// rotI returns i·s·z for real s.
func rotI(s float64, z complex128) complex128 {
	return complex(-s*imag(z), s*real(z))
}

// In every pass, input element k of butterfly (p, q) is
// src[q + s·(p + k·m)] and output j lands at dst[q + s·(radix·p + j)]
// after multiplication by the twiddle w^(p·j); the pass turns s
// interleaved length-radix·m transforms into radix·s interleaved
// length-m ones. sgn is −1 forward and +1 inverse.

func pass2(dst, src, tw []complex128, m, s int) {
	for p := 0; p < m; p++ {
		w := tw[p]
		a0 := src[s*p : s*p+s]
		a1 := src[s*(p+m) : s*(p+m)+s]
		y0 := dst[s*2*p : s*2*p+s]
		y1 := dst[s*(2*p+1) : s*(2*p+1)+s]
		for q, a := range a0 {
			b := a1[q]
			y0[q] = a + b
			y1[q] = (a - b) * w
		}
	}
}

func pass3(dst, src, tw []complex128, m, s int, sgn float64) {
	s3 := sgn * math.Sqrt(3) / 2 // sgn·sin(2π/3)
	for p := 0; p < m; p++ {
		w1, w2 := tw[2*p], tw[2*p+1]
		a0 := src[s*p : s*p+s]
		a1 := src[s*(p+m) : s*(p+m)+s]
		a2 := src[s*(p+2*m) : s*(p+2*m)+s]
		y := dst[s*3*p : s*3*p+3*s]
		for q, x0 := range a0 {
			x1, x2 := a1[q], a2[q]
			t1 := x1 + x2
			t2 := x0 - scale(0.5, t1)
			t3 := rotI(s3, x1-x2)
			y[q] = x0 + t1
			y[s+q] = (t2 + t3) * w1
			y[2*s+q] = (t2 - t3) * w2
		}
	}
}

func pass4(dst, src, tw []complex128, m, s int, sgn float64) {
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		a0 := src[s*p : s*p+s]
		a1 := src[s*(p+m) : s*(p+m)+s]
		a2 := src[s*(p+2*m) : s*(p+2*m)+s]
		a3 := src[s*(p+3*m) : s*(p+3*m)+s]
		y := dst[s*4*p : s*4*p+4*s]
		for q, x0 := range a0 {
			x1, x2, x3 := a1[q], a2[q], a3[q]
			t0 := x0 + x2
			t1 := x0 - x2
			t2 := x1 + x3
			t3 := rotI(sgn, x1-x3)
			y[q] = t0 + t2
			y[s+q] = (t1 + t3) * w1
			y[2*s+q] = (t0 - t2) * w2
			y[3*s+q] = (t1 - t3) * w3
		}
	}
}

func pass5(dst, src, tw []complex128, m, s int, sgn float64) {
	c1 := math.Cos(2 * math.Pi / 5)
	c2 := math.Cos(4 * math.Pi / 5)
	s1 := sgn * math.Sin(2*math.Pi/5)
	s2 := sgn * math.Sin(4*math.Pi/5)
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := tw[4*p], tw[4*p+1], tw[4*p+2], tw[4*p+3]
		a0 := src[s*p : s*p+s]
		a1 := src[s*(p+m) : s*(p+m)+s]
		a2 := src[s*(p+2*m) : s*(p+2*m)+s]
		a3 := src[s*(p+3*m) : s*(p+3*m)+s]
		a4 := src[s*(p+4*m) : s*(p+4*m)+s]
		y := dst[s*5*p : s*5*p+5*s]
		for q, x0 := range a0 {
			x1, x2, x3, x4 := a1[q], a2[q], a3[q], a4[q]
			t1, t2 := x1+x4, x2+x3
			t3, t4 := x1-x4, x2-x3
			r1 := x0 + scale(c1, t1) + scale(c2, t2)
			r2 := x0 + scale(c2, t1) + scale(c1, t2)
			i1 := rotI(1, scale(s1, t3)+scale(s2, t4))
			i2 := rotI(1, scale(s2, t3)-scale(s1, t4))
			y[q] = x0 + t1 + t2
			y[s+q] = (r1 + i1) * w1
			y[2*s+q] = (r2 + i2) * w2
			y[3*s+q] = (r2 - i2) * w3
			y[4*s+q] = (r1 - i1) * w4
		}
	}
}

// bluestein is the chirp-z plan for a length with a prime factor above
// 5: the DFT becomes a cyclic convolution of power-of-two length m with
// a fixed chirp kernel, whose transform is computed once.
type bluestein struct {
	n, m  int
	chirp []complex128 // exp(−iπk²/n), k < n
	khat  []complex128 // FFT_m of the conjugate chirp kernel, scaled by 1/m
	inner *plan
	bufs  sync.Pool // *[]complex128 of length 2m: convolution buffer + work
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := &bluestein{n: n, m: m, chirp: make([]complex128, n), inner: planFor(m)}
	for k := range b.chirp {
		// k² mod 2n keeps the angle small (k² overflows float accuracy
		// for large k).
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(math.Pi * float64(kk) / float64(n))
		b.chirp[k] = complex(c, -s)
	}
	b.khat = make([]complex128, m)
	inv := 1 / float64(m)
	for k := 0; k < n; k++ {
		v := scale(inv, cmplx.Conj(b.chirp[k]))
		b.khat[k] = v
		if k > 0 {
			b.khat[m-k] = v
		}
	}
	b.inner.transform(b.khat, make([]complex128, m), 1, false)
	b.bufs.New = func() any {
		buf := make([]complex128, 2*m)
		return &buf
	}
	return b
}

// transform runs the stride interleaved length-n sequences of x one at
// a time. The inverse direction conjugates on the way in and out:
// DFT⁻(x) = conj(DFT⁺(conj x)).
func (b *bluestein) transform(x []complex128, stride int, inverse bool) {
	bp := b.bufs.Get().(*[]complex128)
	a, work := (*bp)[:b.m], (*bp)[b.m:]
	for q := 0; q < stride; q++ {
		for k := 0; k < b.n; k++ {
			v := x[q+k*stride]
			if inverse {
				v = cmplx.Conj(v)
			}
			a[k] = v * b.chirp[k]
		}
		clear(a[b.n:])
		b.inner.transform(a, work, 1, false)
		for i, kv := range b.khat {
			a[i] *= kv
		}
		b.inner.transform(a, work, 1, true)
		for k := 0; k < b.n; k++ {
			v := a[k] * b.chirp[k]
			if inverse {
				v = cmplx.Conj(v)
			}
			x[q+k*stride] = v
		}
	}
	b.bufs.Put(bp)
}

// scaleAll multiplies x by the real c.
func scaleAll(x []complex128, c float64) {
	for i, v := range x {
		x[i] = scale(c, v)
	}
}

// Forward computes the unscaled forward DFT of x into a new slice; x is
// not modified.
func Forward(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	planFor(len(x)).transform(out, make([]complex128, len(x)), 1, false)
	return out
}

// Inverse computes the inverse DFT (scaled by 1/N) of x into a new
// slice.
func Inverse(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	planFor(len(x)).transform(out, make([]complex128, len(x)), 1, true)
	if len(x) > 0 {
		scaleAll(out, 1/float64(len(x)))
	}
	return out
}

// Forward2D computes the 2-D DFT of an ny×nx array stored row-major
// (rows of length nx). A new slice is returned.
func Forward2D(x []complex128, ny, nx int) []complex128 {
	out := make([]complex128, len(x))
	Forward2DTo(out, x, make([]complex128, len(x)), ny, nx)
	return out
}

// Inverse2D computes the 2-D inverse DFT with 1/(nx·ny) scaling.
func Inverse2D(x []complex128, ny, nx int) []complex128 {
	out := make([]complex128, len(x))
	Inverse2DTo(out, x, make([]complex128, len(x)), ny, nx)
	return out
}

// Forward2DTo writes the 2-D DFT of the ny×nx row-major array x into
// dst, which may alias x. scratch must hold at least ny·nx elements and
// is clobbered. Once the plans for ny and nx are cached the call
// allocates nothing (Bluestein lengths draw their buffers from a pool).
func Forward2DTo(dst, x, scratch []complex128, ny, nx int) {
	transform2D(dst, x, scratch, ny, nx, false)
}

// Inverse2DTo is Forward2DTo for the inverse DFT, scaled by 1/(nx·ny).
func Inverse2DTo(dst, x, scratch []complex128, ny, nx int) {
	transform2D(dst, x, scratch, ny, nx, true)
	if len(dst) > 0 {
		scaleAll(dst, 1/float64(len(dst)))
	}
}

func transform2D(dst, x, scratch []complex128, ny, nx int, inverse bool) {
	if len(x) != ny*nx || len(dst) != len(x) || len(scratch) < len(x) {
		panic("fft: 2D transform shape mismatch")
	}
	copy(dst, x)
	row := planFor(nx)
	for r := 0; r < ny; r++ {
		row.transform(dst[r*nx:(r+1)*nx], scratch[:nx], 1, inverse)
	}
	// All columns in one strided pass: column c is the sequence
	// dst[c + r·nx].
	planFor(ny).transform(dst, scratch, nx, inverse)
}

// CyclicConvolve returns the cyclic (circular) convolution of two
// equal-length sequences: out[k] = Σ_j a[j]·b[(k−j) mod n].
func CyclicConvolve(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("fft: CyclicConvolve length mismatch")
	}
	fa := Forward(a)
	fb := Forward(b)
	for i := range fa {
		fa[i] *= fb[i]
	}
	return Inverse(fa)
}

// CyclicConvolve2D returns the 2-D circular convolution of two ny×nx
// arrays (row-major).
func CyclicConvolve2D(a, b []complex128, ny, nx int) []complex128 {
	fa := Forward2D(a, ny, nx)
	fb := Forward2D(b, ny, nx)
	for i := range fa {
		fa[i] *= fb[i]
	}
	return Inverse2D(fa, ny, nx)
}
