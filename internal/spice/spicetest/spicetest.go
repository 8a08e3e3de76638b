// Package spicetest is the dense reference solver that tests hold the
// spice package's compiled sparse kernel against. It re-derives a
// transient from a circuit's exported elements alone — dense modified
// nodal assembly, the smooth FET law linearized by central differences,
// partial-pivoting LU — and shares no code with the kernel, so
// agreement between the two is evidence rather than tautology. It
// follows the kernel's numerical scheme (trapezoidal companions, damped
// Newton, the same gmin ladder), with its own copy of the kernel's
// constants, so the two agree to rounding. Only tests import it.
package spicetest

import (
	"fmt"
	"math"

	"cnfetdk/internal/device"
	"cnfetdk/internal/spice"
)

// The kernel's fixed numerics, restated rather than imported.
const (
	maxNewton = 100
	vTol      = 1e-6
	gmin      = 1e-12
	maxStep   = 0.5
)

// gminLadder is the kernel's operating-point fallback.
var gminLadder = []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, gmin}

// Waves is a full waveform set: V[i] is the voltage of node i+1 and
// IV[v] the branch current of voltage source v at each of Times.
type Waves struct {
	Times []float64
	V     [][]float64
	IV    [][]float64
}

// AllProbes names every non-ground node and every voltage source of c:
// what a test comparing whole waveform sets against the oracle records
// from the kernel.
func AllProbes(c *spice.Circuit) spice.Probes {
	var p spice.Probes
	for i := 1; i < c.NodeCount(); i++ {
		p.Nodes = append(p.Nodes, c.NodeName(i))
	}
	for v := range c.VSources {
		p.Sources = append(p.Sources, v)
	}
	return p
}

// MaxWaveDiff returns the largest absolute difference between the
// kernel's waveforms, recorded with AllProbes, and the oracle's.
func MaxWaveDiff(got *spice.Result, want *Waves) (float64, error) {
	if len(got.V) != len(want.V) || len(got.Times) != len(want.Times) {
		return 0, fmt.Errorf("spicetest: shape mismatch: %d nodes × %d samples vs %d × %d",
			len(got.V), len(got.Times), len(want.V), len(want.Times))
	}
	worst := 0.0
	for i := range want.V {
		for k, v := range want.V[i] {
			worst = math.Max(worst, math.Abs(got.V[i][k]-v))
		}
	}
	return worst, nil
}

// OP is the dense operating point: node voltages (index node-1) then
// branch currents, with the kernel's gmin-stepping fallback.
func OP(c *spice.Circuit) ([]float64, error) {
	s := newSystem(c)
	if err := s.op(); err != nil {
		return nil, err
	}
	return s.x, nil
}

// Transient is the dense fixed-step trapezoidal transient of c.
func Transient(c *spice.Circuit, tstop float64, steps int) (*Waves, error) {
	s := newSystem(c)
	if err := s.op(); err != nil {
		return nil, err
	}
	w := &Waves{Times: make([]float64, steps+1), V: make([][]float64, s.n), IV: make([][]float64, s.dim-s.n)}
	for i := range w.V {
		w.V[i] = make([]float64, steps+1)
	}
	for i := range w.IV {
		w.IV[i] = make([]float64, steps+1)
	}
	record := func(k int) {
		w.Times[k] = s.t
		for i := range w.V {
			w.V[i][k] = s.x[i]
		}
		for i := range w.IV {
			w.IV[i][k] = s.x[s.n+i]
		}
	}
	record(0)
	copy(s.xPrev, s.x)
	s.dt = tstop / float64(steps)
	for k := 1; k <= steps; k++ {
		s.t = float64(k) * s.dt
		if err := s.newton(); err != nil {
			return nil, err
		}
		for ci, cp := range c.Capacitors {
			geq := 2 * cp.C / s.dt
			dv := s.v(s.x, cp.A) - s.v(s.x, cp.B) - (s.v(s.xPrev, cp.A) - s.v(s.xPrev, cp.B))
			s.iPrev[ci] = geq*dv - s.iPrev[ci]
		}
		copy(s.xPrev, s.x)
		record(k)
	}
	return w, nil
}

// system is one dense MNA problem: A·x = b over n node voltages and
// one branch current per voltage source.
type system struct {
	c        *spice.Circuit
	gmin     float64
	n, dim   int
	a, b     []float64
	x, xPrev []float64
	iPrev    []float64
	perm     []int
	dt, t    float64
}

func newSystem(c *spice.Circuit) *system {
	n := c.NodeCount() - 1
	dim := n + len(c.VSources)
	return &system{
		c: c, gmin: gmin, n: n, dim: dim,
		a: make([]float64, dim*dim), b: make([]float64, dim),
		x: make([]float64, dim), xPrev: make([]float64, dim),
		iPrev: make([]float64, len(c.Capacitors)), perm: make([]int, dim),
	}
}

// v reads a node voltage from a solution vector (ground is 0).
func (s *system) v(x []float64, node int) float64 {
	if node == 0 {
		return 0
	}
	return x[node-1]
}

func (s *system) addA(r, c int, g float64) {
	if r >= 0 && c >= 0 {
		s.a[r*s.dim+c] += g
	}
}

func (s *system) addB(r int, i float64) {
	if r >= 0 {
		s.b[r] += i
	}
}

// conductance stamps g between nodes p and q.
func (s *system) conductance(p, q int, g float64) {
	s.addA(p-1, p-1, g)
	s.addA(q-1, q-1, g)
	s.addA(p-1, q-1, -g)
	s.addA(q-1, p-1, -g)
}

// assemble builds the whole system linearized around the present
// estimate x at time t.
func (s *system) assemble() {
	for i := range s.a {
		s.a[i] = 0
	}
	for i := range s.b {
		s.b[i] = 0
	}
	c := s.c
	for _, r := range c.Resistors {
		s.conductance(r.A, r.B, 1/r.R)
	}
	if s.dt > 0 {
		for ci, cp := range c.Capacitors {
			geq := 2 * cp.C / s.dt
			s.conductance(cp.A, cp.B, geq)
			ieq := geq*(s.v(s.xPrev, cp.A)-s.v(s.xPrev, cp.B)) + s.iPrev[ci]
			s.addB(cp.A-1, ieq)
			s.addB(cp.B-1, -ieq)
		}
	}
	for vi, vs := range c.VSources {
		row := s.n + vi
		s.addA(vs.P-1, row, 1)
		s.addA(row, vs.P-1, 1)
		s.addA(vs.N-1, row, -1)
		s.addA(row, vs.N-1, -1)
		s.b[row] += vs.W.At(s.t)
	}
	for _, f := range c.FETs {
		s.conductance(f.D, 0, s.gmin)
		s.conductance(f.S, 0, s.gmin)
		vg, vd, vs := s.v(s.x, f.G), s.v(s.x, f.D), s.v(s.x, f.S)
		id, gg, gd, gs := FETEval(f.P, vg, vd, vs)
		ieq := id - gg*vg - gd*vd - gs*vs
		s.addB(f.D-1, -ieq)
		s.addB(f.S-1, ieq)
		for _, t := range [3]struct {
			node int
			g    float64
		}{{f.G, gg}, {f.D, gd}, {f.S, gs}} {
			s.addA(f.D-1, t.node-1, t.g)
			s.addA(f.S-1, t.node-1, -t.g)
		}
	}
}

// newton runs the kernel's damped Newton policy on the dense system.
func (s *system) newton() error {
	for it := 0; it < maxNewton; it++ {
		s.assemble()
		if err := LU(s.a, s.b, s.perm, s.dim); err != nil {
			return err
		}
		conv := true
		for i := 0; i < s.dim; i++ {
			d := s.b[i] - s.x[i]
			if i < s.n {
				conv = conv && math.Abs(d) <= vTol
				d = math.Max(-maxStep, math.Min(maxStep, d))
			}
			s.x[i] += d
		}
		if conv {
			return nil
		}
	}
	return fmt.Errorf("spicetest: Newton did not converge at t=%.3e", s.t)
}

// op solves the operating point: a direct solve, then the gmin ladder.
func (s *system) op() error {
	if s.newton() == nil {
		return nil
	}
	for _, g := range gminLadder {
		s.gmin = g
		if err := s.newton(); err != nil {
			return fmt.Errorf("spicetest: operating point: gmin step %g: %w", g, err)
		}
	}
	return nil
}

// LU performs in-place dense LU factorization with partial pivoting and
// solves A·x = b. A is row-major n×n and is destroyed; b is overwritten
// with the solution. perm is caller-owned pivot scratch (len >= n); on
// return perm[k] records the row chosen as the pivot at elimination
// step k (perm[k] == k when no swap happened).
func LU(a []float64, b []float64, perm []int, n int) error {
	perm = perm[:n]
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 || math.IsNaN(best) {
			return fmt.Errorf("spicetest: singular matrix (no usable pivot in column %d)", k)
		}
		perm[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			b[k], b[p] = b[p], b[k]
		}
		inv := 1 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] * inv
			if f == 0 {
				continue
			}
			a[i*n+k] = f
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
			b[i] -= f * b[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * b[j]
		}
		b[i] = s / a[i*n+i]
	}
	return nil
}

// FETEval returns the drain current of the smooth FET law and its
// terminal derivatives by central differences — six extra evaluations
// of FETCurrent, the independent counterpart of the kernel's
// closed-form derivatives.
func FETEval(p device.FETParams, vg, vd, vs float64) (id, dIg, dId, dIs float64) {
	id = FETCurrent(p, vg, vd, vs)
	const h = 1e-6
	dIg = (FETCurrent(p, vg+h, vd, vs) - FETCurrent(p, vg-h, vd, vs)) / (2 * h)
	dId = (FETCurrent(p, vg, vd+h, vs) - FETCurrent(p, vg, vd-h, vs)) / (2 * h)
	dIs = (FETCurrent(p, vg, vd, vs+h) - FETCurrent(p, vg, vd, vs-h)) / (2 * h)
	return id, dIg, dId, dIs
}

// FETCurrent returns the drain-to-source current of the smooth FET
// model: I = sign · ISat · g(u) · tanh(vds'/VSat) in the source-swapped
// frame, with g the logistic gate factor at u = (vgs' - Vt)/SS.
func FETCurrent(p device.FETParams, vg, vd, vs float64) float64 {
	vgs := vg - vs
	vds := vd - vs
	if p.Polarity == device.PType {
		vgs = vs - vg
		vds = vs - vd
	}
	sign := 1.0
	if vds < 0 {
		// Symmetric device: treat the lower terminal as the source. The
		// effective gate drive is measured from the new source (the old
		// drain): vgs' = vg - vd = vgs - vds.
		vgs -= vds
		vds = -vds
		sign = -1
	}
	u := (vgs - p.Vt) / p.SS
	var g float64
	switch {
	case u > 40:
		g = 1
	case u < -40:
		g = 0
	default:
		g = 1 / (1 + math.Exp(-u))
	}
	i := sign * p.ISat * g * math.Tanh(vds/p.VSat)
	if p.Polarity == device.PType {
		i = -i
	}
	return i
}
