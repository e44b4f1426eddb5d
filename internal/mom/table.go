package mom

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/greens"
	"roughsim/internal/surface"
)

// TableSet is a per-frequency acceleration structure for MoM assembly.
//
// Observation and source points of the collocation grid differ laterally
// by a finite set of offsets — (i + s/sub)·h per axis — while the
// vertical offset Δz = f_i − f_j varies continuously with the surface
// realization. The periodic Green's functions and their gradients are
// therefore tabulated once per lateral offset as Chebyshev interpolants
// in Δz over [−ZSpan, ZSpan], and every subsequent assembly (every SSCM
// collocation node, every Monte-Carlo sample at that frequency) reduces
// to Clenshaw evaluations: for the paper's Fig. 7 this replaces millions
// of Ewald/image-series evaluations per sample by one-time table
// construction.
type TableSet struct {
	L     float64
	M     int
	ZSpan float64
	Sub   int // near-field subdivision factor the tables cover
	Near  int // near-field radius the tables cover

	g1, g2 *tabulated
	// Exact evaluators retained for self terms.
	exact1, exact2 *greens.Periodic3D
}

const chebDegree = 32 // interpolation nodes per offset

// tabulated interpolates one medium's G and ∇G.
//
// What is stored is the smooth remainder G − G_free(central image): the
// free-space term e^{jkR}/(4πR) of the nearest image is sharply peaked
// in Δz for small lateral offsets (scale ~ρ, far below any reasonable
// node count), so it is subtracted before fitting and added back exactly
// (one complex exponential) at evaluation time. The remainder — distant
// images plus the spectral part — varies on the lattice scale L and is
// captured to ~1e−9 by the 20-node fit.
type tabulated struct {
	m, sub, near int
	h            float64
	zspan        float64
	k            complex128
	l            float64
	g            *greens.Periodic3D
	subShells    int // free-space image shells evaluated exactly (direct mode)
	ewaldCentral bool
	// far[(dy*m+dx)] and nearTab[subOffsetIndex] hold Chebyshev
	// coefficients for (G, Gx, Gy, Gz).
	far     [][4][]complex128
	nearTab [][4][]complex128
	nearDim int // sub-offsets per axis = (2·near+1)·sub
}

// NewTableSet builds tables for both media at one frequency. zspan must
// bound |f_i − f_j| + the second-order tilt corrections of every surface
// that will be assembled against it.
func NewTableSet(p Params, L float64, M int, zspan float64, opt Options) *TableSet {
	opt = opt.withDefaults()
	ts := &TableSet{
		L: L, M: M, ZSpan: zspan, Sub: opt.NearSubdiv, Near: opt.NearRadius,
		exact1: greens.NewPeriodic3D(p.K1, L),
		exact2: greens.NewPeriodic3D(p.K2, L),
	}
	ts.g1 = newTabulated(ts.exact1, L, M, zspan, opt)
	ts.g2 = newTabulated(ts.exact2, L, M, zspan, opt)
	return ts
}

func chebNodes(n int, span float64) []float64 {
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = span * math.Cos((float64(k)+0.5)*math.Pi/float64(n))
	}
	return x
}

// chebCoeffs converts samples at the standard Chebyshev nodes into
// expansion coefficients (plain O(n²) transform; n is small).
func chebCoeffs(samples []complex128) []complex128 {
	n := len(samples)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		var s complex128
		for k := 0; k < n; k++ {
			s += samples[k] * complex(math.Cos(float64(j)*(float64(k)+0.5)*math.Pi/float64(n)), 0)
		}
		out[j] = s * complex(2/float64(n), 0)
	}
	out[0] /= 2
	return out
}

// clenshaw evaluates a Chebyshev expansion at t ∈ [−1, 1]. The real
// and imaginary parts run the recurrence separately, scaled by the real
// 2t: a complex product would spend two more multiplies per step on the
// zero imaginary part of 2t.
func clenshaw(c []complex128, t float64) complex128 {
	var b1r, b1i, b2r, b2i float64
	tt := 2 * t
	for j := len(c) - 1; j >= 1; j-- {
		b1r, b2r = real(c[j])+tt*b1r-b2r, b1r
		b1i, b2i = imag(c[j])+tt*b1i-b2i, b1i
	}
	return complex(real(c[0])+t*b1r-b2r, imag(c[0])+t*b1i-b2i)
}

// clenshaw4 evaluates four Chebyshev expansions sharing t in one pass;
// c[j] holds the four degree-j coefficients. Each lane performs exactly
// clenshaw's operations, so the values are bitwise those of four
// clenshaw calls.
func clenshaw4(c [][4]complex128, t float64) [4]complex128 {
	var a1r, a1i, a2r, a2i float64 // lane 0: b_{j+1}, b_{j+2}
	var b1r, b1i, b2r, b2i float64 // lane 1
	var c1r, c1i, c2r, c2i float64 // lane 2
	var d1r, d1i, d2r, d2i float64 // lane 3
	tt := 2 * t
	for j := len(c) - 1; j >= 1; j-- {
		e := &c[j]
		a1r, a2r = real(e[0])+tt*a1r-a2r, a1r
		a1i, a2i = imag(e[0])+tt*a1i-a2i, a1i
		b1r, b2r = real(e[1])+tt*b1r-b2r, b1r
		b1i, b2i = imag(e[1])+tt*b1i-b2i, b1i
		c1r, c2r = real(e[2])+tt*c1r-c2r, c1r
		c1i, c2i = imag(e[2])+tt*c1i-c2i, c1i
		d1r, d2r = real(e[3])+tt*d1r-d2r, d1r
		d1i, d2i = imag(e[3])+tt*d1i-d2i, d1i
	}
	e := &c[0]
	return [4]complex128{
		complex(real(e[0])+t*a1r-a2r, imag(e[0])+t*a1i-a2i),
		complex(real(e[1])+t*b1r-b2r, imag(e[1])+t*b1i-b2i),
		complex(real(e[2])+t*c1r-c2r, imag(e[2])+t*c1i-c2i),
		complex(real(e[3])+t*d1r-d2r, imag(e[3])+t*d1i-d2i),
	}
}

func newTabulated(g *greens.Periodic3D, L float64, M int, zspan float64, opt Options) *tabulated {
	h := L / float64(M)
	t := &tabulated{m: M, sub: opt.NearSubdiv, near: opt.NearRadius, h: h, zspan: zspan, k: g.K, l: L, g: g}
	if g.UsesEwald() {
		// The spatial central Ewald term is the only sub-period-scale
		// part (it carries the |Δz| kink at small lateral offsets);
		// evaluate it exactly and interpolate the smooth remainder.
		t.ewaldCentral = true
	} else {
		// Direct-sum media (strong loss): the whole first image shell
		// still carries phase across the Δz span; evaluate it exactly
		// and interpolate only the tiny (≲e^{−2·Im(k)·L}) remainder.
		t.subShells = 1
	}
	nodes := chebNodes(chebDegree, zspan)

	// Far table: one entry per wrapped grid offset. The near offsets are
	// also filled (they are cheap and keep indexing uniform), but
	// assembly never reads the (0,0) entry (self terms stay exact).
	t.far = make([][4][]complex128, M*M)
	t.nearDim = (2*opt.NearRadius + 1) * opt.NearSubdiv
	t.nearTab = make([][4][]complex128, t.nearDim*t.nearDim)

	var wg sync.WaitGroup
	workers := opt.Workers
	jobs := make(chan int)
	samples := func(dx, dy float64) [4][]complex128 {
		var smp [4][]complex128
		for q := 0; q < 4; q++ {
			smp[q] = make([]complex128, chebDegree)
		}
		for k, z := range nodes {
			v, gr := g.EvalGrad(dx, dy, z)
			fv, fg := t.freeImages(dx, dy, z)
			smp[0][k] = v - fv
			smp[1][k] = gr[0] - fg[0]
			smp[2][k] = gr[1] - fg[1]
			smp[3][k] = gr[2] - fg[2]
		}
		for q := 0; q < 4; q++ {
			smp[q] = chebCoeffs(smp[q])
		}
		return smp
	}

	// Far offsets.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				iy, ix := idx/M, idx%M
				if ix == 0 && iy == 0 {
					continue // self cell handled exactly
				}
				t.far[idx] = samples(float64(ix)*h, float64(iy)*h)
			}
		}()
	}
	for idx := 0; idx < M*M; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	// Near sub-offsets: lateral values (i + (s+0.5)/sub − 0.5 − …)·h
	// relative to the observation point, spanning the near window.
	wg = sync.WaitGroup{}
	jobs = make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				ax := idx % t.nearDim
				ay := idx / t.nearDim
				dx := t.nearOffset(ax)
				dy := t.nearOffset(ay)
				t.nearTab[idx] = samples(dx, dy)
			}
		}()
	}
	for idx := 0; idx < t.nearDim*t.nearDim; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	return t
}

// nearOffset maps a near-table axis index to its lateral offset: the
// observation sits at cell offset c ∈ [−near, near] with sub-cell shift
// o ∈ sub points, combined as (c − o) where o = ((s+0.5)/sub − 0.5)·h.
func (t *tabulated) nearOffset(a int) float64 {
	c := a/t.sub - t.near
	s := a % t.sub
	o := ((float64(s)+0.5)/float64(t.sub) - 0.5) * t.h
	return float64(c)*t.h - o
}

// nearIndex is the inverse of nearOffset for cell offset c and sub index s.
func (t *tabulated) nearIndex(c, s int) int {
	return (c+t.near)*t.sub + s
}

// freeImages returns the exactly evaluated sharp part of the kernel:
// the spatial central Ewald term (Ewald-mode media) or the free-space
// image sum over the central subShells shells (direct-mode media), with
// Δ-gradients, at the period-wrapped lateral offset.
func (t *tabulated) freeImages(dx, dy, dz float64) (complex128, [3]complex128) {
	if t.ewaldCentral {
		return t.g.SpatialShell(dx, dy, dz)
	}
	dx = wrapLen(dx, t.l)
	dy = wrapLen(dy, t.l)
	var v complex128
	var grad [3]complex128
	for p := -t.subShells; p <= t.subShells; p++ {
		for q := -t.subShells; q <= t.subShells; q++ {
			rx := dx - float64(p)*t.l
			ry := dy - float64(q)*t.l
			r := math.Sqrt(rx*rx + ry*ry + dz*dz)
			ekr := cmplx.Exp(complex(0, 1) * t.k * complex(r, 0))
			v += ekr / complex(4*math.Pi*r, 0)
			dvdr := ekr * (complex(0, 1)*t.k*complex(r, 0) - 1) / complex(4*math.Pi*r*r, 0)
			grad[0] += dvdr * complex(rx/r, 0)
			grad[1] += dvdr * complex(ry/r, 0)
			grad[2] += dvdr * complex(dz/r, 0)
		}
	}
	return v, grad
}

// wrapLen maps x into [−L/2, L/2).
func wrapLen(x, l float64) float64 {
	x = math.Mod(x, l)
	if x >= l/2 {
		x -= l
	} else if x < -l/2 {
		x += l
	}
	return x
}

// evalFar interpolates G and ∇G at wrapped grid offset (ix, iy) and
// height difference dz.
func (t *tabulated) evalFar(ix, iy int, dz float64) (complex128, [3]complex128) {
	e := &t.far[iy*t.m+ix]
	tt := dz / t.zspan
	fv, fg := t.freeImages(float64(ix)*t.h, float64(iy)*t.h, dz)
	return clenshaw(e[0], tt) + fv, [3]complex128{
		clenshaw(e[1], tt) + fg[0],
		clenshaw(e[2], tt) + fg[1],
		clenshaw(e[3], tt) + fg[2],
	}
}

// evalNear interpolates at near-table axis indices (ax, ay).
func (t *tabulated) evalNear(ax, ay int, dz float64) (complex128, [3]complex128) {
	e := &t.nearTab[ay*t.nearDim+ax]
	tt := dz / t.zspan
	fv, fg := t.freeImages(t.nearOffset(ax), t.nearOffset(ay), dz)
	return clenshaw(e[0], tt) + fv, [3]complex128{
		clenshaw(e[1], tt) + fg[0],
		clenshaw(e[2], tt) + fg[1],
		clenshaw(e[3], tt) + fg[2],
	}
}

// AssembleTabulated builds the dense system using the tables; it is
// numerically interchangeable with Assemble (the tests bound the
// difference) at a fraction of the cost per surface.
func AssembleTabulated(s *surface.Surface, p Params, ts *TableSet, opt Options) (*System, error) {
	opt = opt.withDefaults()
	if s.M != ts.M || s.L != ts.L {
		return nil, fmt.Errorf("mom: surface grid %gx%d does not match table %gx%d", s.L, s.M, ts.L, ts.M)
	}
	if opt.NearSubdiv != ts.Sub || opt.NearRadius != ts.Near {
		return nil, fmt.Errorf("mom: options (near=%d sub=%d) do not match table (near=%d sub=%d)",
			opt.NearRadius, opt.NearSubdiv, ts.Near, ts.Sub)
	}
	m := s.M
	n := m * m
	h := s.Step()
	var zmax float64
	for _, v := range s.H {
		if a := math.Abs(v); a > zmax {
			zmax = a
		}
	}
	// Tilted sub-cells can push |Δz| slightly past 2·max|f|.
	if 2.2*zmax > ts.ZSpan {
		return nil, fmt.Errorf("mom: surface height range %g exceeds table span %g", 2.2*zmax, ts.ZSpan)
	}

	fx, fy := s.Gradients()
	fxx, fyy, fxy := s.SecondDerivs()

	a := cmplxmat.New(2*n, 2*n)
	rhs := make([]complex128, 2*n)

	selfSing := complex(h*math.Log(1+math.Sqrt2)/math.Pi, 0)
	s1Self := selfSing + complex(h*h, 0)*ts.exact1.EvalRegularized()
	s2Self := selfSing + complex(h*h, 0)*ts.exact2.EvalRegularized()

	area := complex(h*h, 0)
	sub := opt.NearSubdiv
	subArea := complex(h*h/float64(sub*sub), 0)

	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				assembleRowTabulated(a, rhs, s, p, ts, i,
					fx, fy, fxx, fyy, fxy,
					s1Self, s2Self, area, subArea, opt)
			}
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return &System{N: n, Matrix: a, RHS: rhs, Step: h}, nil
}

func assembleRowTabulated(a *cmplxmat.Matrix, rhs []complex128, s *surface.Surface, p Params, ts *TableSet, i int,
	fx, fy, fxx, fyy, fxy []float64, s1Self, s2Self, area, subArea complex128, opt Options) {

	m := s.M
	n := m * m
	h := s.Step()
	iy, ix := i/m, i%m
	zi := s.H[i]
	row1 := a.Row(i)
	row2 := a.Row(n + i)
	sub := opt.NearSubdiv
	for j := 0; j < n; j++ {
		jy, jx := j/m, j%m
		var s1v, s2v, d1, d2 complex128
		if j == i {
			s1v, s2v = s1Self, s2Self
			curv := complex((fxx[i]+fyy[i])*h*math.Log(1+math.Sqrt2)/(4*math.Pi), 0)
			d1, d2 = curv, curv
		} else {
			dzc := zi - s.H[j]
			cx := wrapOffset(ix-jx, m)
			cy := wrapOffset(iy-jy, m)
			if absInt(cx) <= opt.NearRadius && absInt(cy) <= opt.NearRadius {
				for sy := 0; sy < sub; sy++ {
					oy := ((float64(sy)+0.5)/float64(sub) - 0.5) * h
					ayi := ts.g1.nearIndex(cy, sy)
					for sx := 0; sx < sub; sx++ {
						ox := ((float64(sx)+0.5)/float64(sub) - 0.5) * h
						axi := ts.g1.nearIndex(cx, sx)
						ddz := dzc - (fx[j]*ox + fy[j]*oy +
							0.5*fxx[j]*ox*ox + 0.5*fyy[j]*oy*oy + fxy[j]*ox*oy)
						v1, gr1 := ts.g1.evalNear(axi, ayi, ddz)
						v2, gr2 := ts.g2.evalNear(axi, ayi, ddz)
						s1v += v1 * subArea
						s2v += v2 * subArea
						snx := -(fx[j] + fxx[j]*ox + fxy[j]*oy)
						sny := -(fy[j] + fyy[j]*oy + fxy[j]*ox)
						d1 += -(complex(snx, 0)*gr1[0] + complex(sny, 0)*gr1[1] + gr1[2]) * subArea
						d2 += -(complex(snx, 0)*gr2[0] + complex(sny, 0)*gr2[1] + gr2[2]) * subArea
					}
				}
			} else {
				// Far: the table is indexed by the positive wrapped
				// offset (ix−jx mod m, iy−jy mod m).
				px := ((ix-jx)%m + m) % m
				py := ((iy-jy)%m + m) % m
				v1, gr1 := ts.g1.evalFar(px, py, dzc)
				v2, gr2 := ts.g2.evalFar(px, py, dzc)
				s1v = v1 * area
				s2v = v2 * area
				jnx, jny := -fx[j], -fy[j]
				d1 = -(complex(jnx, 0)*gr1[0] + complex(jny, 0)*gr1[1] + gr1[2]) * area
				d2 = -(complex(jnx, 0)*gr2[0] + complex(jny, 0)*gr2[1] + gr2[2]) * area
			}
		}
		row1[j] = -d1
		row1[n+j] = p.Beta * s1v
		row2[j] = d2
		row2[n+j] = -s2v
	}
	row1[i] += 0.5
	row2[i] += 0.5
	rhs[i] = cmplx.Exp(complex(0, -1) * p.K1 * complex(zi, 0))
}

func wrapOffset(d, m int) int {
	d = ((d % m) + m) % m
	if d > m/2 {
		d -= m
	}
	return d
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
