package spice

import (
	"context"
	"fmt"
	"math"
	"time"

	"cnfetdk/internal/device"
)

// The solver's numerics are fixed: no caller tunes them.
const (
	// maxNewton caps the Newton-Raphson iterations of one solve.
	maxNewton = 100
	// vTol is the node-voltage convergence tolerance, in volts.
	vTol = 1e-6
	// gmin is the conductance tied from every FET drain and source to
	// ground for convergence robustness, in siemens.
	gmin = 1e-12
	// maxStep clamps one Newton node-voltage update (damping), in volts.
	maxStep = 0.5
	// deadlineEvery is how many timesteps a transient runs between reads
	// of the clock against its context's deadline.
	deadlineEvery = 256
)

// gminLadder is the operating point's fallback when a direct solve
// fails: gmin stepping, starting heavily damped and relaxing to gmin.
var gminLadder = []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, gmin}

// state is a scratch MNA system over one plan. The linear part of the
// system (resistor conductances, capacitor trapezoidal companions,
// voltage-source incidence, Gmin ties) is stamped once per (deltaT,
// Gmin) configuration into fStatic; each Newton iteration copy-restores
// it into the factor storage, adds only the FET Norton linearizations
// and factors in place. The per-time-point RHS (source waveform values,
// capacitor history currents) is likewise stamped once per time point
// into bStep. Every slice lives for the life of the state and is reused
// across iterations and timesteps, so a solve in steady state allocates
// nothing.
type state struct {
	c    *Circuit
	gmin float64 // FET tie conductance: gmin, or a ladder rung while stepping
	n    int     // node unknowns excluding ground
	m    int     // voltage-source branch currents
	dim  int

	// The plan is the per-topology symbolic factorization; it survives
	// init across structure-identical circuits, and Batch pre-seeds it
	// so every lane shares one.
	pl      *plan
	fStatic []float64 // static stamps over the factor storage, valid for (deltaT, gmin)
	f       []float64 // working values, copy-restored and factored in place per iteration
	geq     []float64 // per-capacitor companion conductance 2C/deltaT, valid with fStatic

	// Vectors over matrix rows carry one extra trailing row standing for
	// ground: RHS stamps into it are discarded, and it stays 0 in the
	// solution vectors, so element tables index them without branching.
	bStep []float64 // per-time-point RHS (sources at t, capacitor history)
	b     []float64 // working RHS, overwritten by the solution
	w     []float64 // dim-sized solve scratch
	x     []float64 // current solution estimate (node voltages + branch currents)
	xPrev []float64 // previous timestep solution
	iPrev []float64 // previous capacitor currents (trapezoidal)

	memo []fetMemo // per-FET last linearization, cleared by init

	deltaT float64 // 0 for DC
	t      float64

	staticOK bool // fStatic and geq match the current (deltaT, gmin)

	// Work counters over the life of the state: Newton iterations, and
	// the FET linearizations evaluated and reused across them.
	iters, evals, reuses int
}

// fetMemo is one FET's last linearization: the bit patterns of the
// terminal voltages it was evaluated at and what fetEval returned.
type fetMemo struct {
	vg, vd, vs        uint64
	id, dIg, dId, dIs float64
	ok                bool // filled since the last init
}

// init sizes the scratch for a circuit, reusing any capacity the state
// already holds, and resets the solution estimate to zero. A plan left
// from a previous solve is kept when the new circuit has the identical
// topology (load sweeps and Monte Carlo lanes rebuild fresh but
// structure-identical circuits), so repeated solves plan once.
func (s *state) init(c *Circuit) error {
	n := c.NodeCount() - 1
	m := len(c.VSources)
	dim := n + m
	s.c, s.gmin = c, gmin
	s.n, s.m, s.dim = n, m, dim
	if s.pl == nil || !s.pl.matches(c, n, m) {
		pl, err := newPlan(c, n, m)
		if err != nil {
			return err
		}
		s.pl = pl
	}
	nf := int(s.pl.trash) + 1
	s.fStatic = growFloats(s.fStatic, nf)
	s.f = growFloats(s.f, nf)
	s.geq = growFloats(s.geq, len(c.Capacitors))
	s.bStep = growFloats(s.bStep, dim+1)
	s.b = growFloats(s.b, dim+1)
	s.w = growFloats(s.w, dim)
	s.x = growFloats(s.x, dim+1)
	s.xPrev = growFloats(s.xPrev, dim+1)
	s.iPrev = growFloats(s.iPrev, len(c.Capacitors))
	// FET parameters may differ from the previous solve's (ensemble
	// redraws, characterization grids), so no linearization survives.
	if cap(s.memo) < len(c.FETs) {
		s.memo = make([]fetMemo, len(c.FETs))
	}
	s.memo = s.memo[:len(c.FETs)]
	clear(s.memo)
	zeroFloats(s.x)
	zeroFloats(s.xPrev)
	zeroFloats(s.iPrev)
	s.deltaT, s.t = 0, 0
	s.staticOK = false
	return nil
}

// growFloats returns a slice of length n, reusing s's capacity when it
// suffices. Contents are unspecified; callers overwrite or zero them.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// setGmin updates the robustness conductance, invalidating the static
// stamps when it actually changes (gmin stepping).
func (s *state) setGmin(g float64) {
	if s.gmin != g {
		s.gmin = g
		s.staticOK = false
	}
}

// setDeltaT switches between DC (0) and transient companion stamping.
func (s *state) setDeltaT(dt float64) {
	if s.deltaT != dt {
		s.deltaT = dt
		s.staticOK = false
	}
}

// row maps a node index to its matrix row, ground to the trash row.
func (s *state) row(node int) int {
	if node == 0 {
		return s.dim
	}
	return node - 1
}

// stampG stamps a conductance between nodes a and b into the static
// values through the plan's slot map.
func (s *state) stampG(a, b int, g float64) {
	ia, ib := a-1, b-1
	if ia >= 0 {
		s.fStatic[s.pl.slotOf(ia, ia)] += g
	}
	if ib >= 0 {
		s.fStatic[s.pl.slotOf(ib, ib)] += g
	}
	if ia >= 0 && ib >= 0 {
		s.fStatic[s.pl.slotOf(ia, ib)] -= g
		s.fStatic[s.pl.slotOf(ib, ia)] -= g
	}
}

// stampStatic assembles the linear, configuration-dependent part of the
// MNA matrix — resistors, capacitor trapezoidal companion conductances,
// voltage-source incidence, per-FET Gmin ties — and tabulates each
// capacitor's companion conductance for the per-step history. It
// depends only on (deltaT, gmin), never on the Newton estimate or
// the time point, so newton copy-restores it instead of re-stamping.
// The slot lookups binary-search the pattern — fine for a routine that
// runs once per configuration, not per iteration.
func (s *state) stampStatic() {
	zeroFloats(s.fStatic)
	c := s.c
	for _, r := range c.Resistors {
		s.stampG(r.A, r.B, 1/r.R)
	}
	if s.deltaT > 0 {
		for ci, cp := range c.Capacitors {
			s.geq[ci] = 2 * cp.C / s.deltaT
			s.stampG(cp.A, cp.B, s.geq[ci])
		}
	}
	// DC: capacitors are open circuits (their pattern slots stay zero).
	for vi, vs := range c.VSources {
		row := s.n + vi
		if ip := vs.P - 1; ip >= 0 {
			s.fStatic[s.pl.slotOf(ip, row)]++
			s.fStatic[s.pl.slotOf(row, ip)]++
		}
		if in := vs.N - 1; in >= 0 {
			s.fStatic[s.pl.slotOf(in, row)]--
			s.fStatic[s.pl.slotOf(row, in)]--
		}
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		s.stampG(f.D, 0, s.gmin)
		s.stampG(f.S, 0, s.gmin)
	}
	s.staticOK = true
}

// stampStep assembles the per-time-point RHS: voltage-source waveform
// values and the capacitor trapezoidal history. It
// depends on (t, xPrev, iPrev) — all fixed across the Newton iterations
// of one time point — so newton computes it once per solve.
func (s *state) stampStep() {
	zeroFloats(s.bStep)
	c := s.c
	if s.deltaT > 0 {
		rows := s.pl.capRow
		for ci, geq := range s.geq {
			ra, rb := rows[2*ci], rows[2*ci+1]
			// Inject ieq from B to A.
			ieq := geq*(s.xPrev[ra]-s.xPrev[rb]) + s.iPrev[ci]
			s.bStep[rb] -= ieq
			s.bStep[ra] += ieq
		}
	}
	for vi, vs := range c.VSources {
		s.bStep[s.n+vi] += vs.W.At(s.t)
	}
}

// stampFETs linearizes every FET around the present estimate,
// I(v) ≈ I0 + gG·(vg-vg0) + gD·(vd-vd0) + gS·(vs-vs0), stamping the
// Norton current into the RHS and the three conductances into the six
// slots the plan precomputed — indexed adds, no searching. The FETs'
// Gmin ties live in the static stamps.
//
// A FET whose terminal voltages are bit-identical to its previous
// evaluation's stamps the memoized linearization instead: fetEval is a
// pure function of (params, vg, vd, vs), so reuse changes no bit. Many
// do repeat — settled stages, rail-tied inputs — and the skipped exp and
// tanh are most of a transient's device work.
func (s *state) stampFETs() {
	rows, slots := s.pl.fetRow, s.pl.fetSlot
	reused := 0
	for fi := range s.c.FETs {
		rd, rg, rs := rows[3*fi], rows[3*fi+1], rows[3*fi+2]
		vg, vd, vs := s.x[rg], s.x[rd], s.x[rs]
		m := &s.memo[fi]
		bg, bd, bs := math.Float64bits(vg), math.Float64bits(vd), math.Float64bits(vs)
		if m.ok && m.vg == bg && m.vd == bd && m.vs == bs {
			reused++
		} else {
			m.id, m.dIg, m.dId, m.dIs = fetEval(&s.c.FETs[fi].P, vg, vd, vs)
			m.vg, m.vd, m.vs, m.ok = bg, bd, bs, true
		}
		id, dIg, dId, dIs := m.id, m.dIg, m.dId, m.dIs
		// KCL at D: +id; at S: -id.
		ieq := id - dIg*vg - dId*vd - dIs*vs
		s.b[rd] -= ieq
		s.b[rs] += ieq
		sl := slots[6*fi : 6*fi+6]
		s.f[sl[0]] += dIg
		s.f[sl[1]] += dId
		s.f[sl[2]] += dIs
		s.f[sl[3]] -= dIg
		s.f[sl[4]] -= dId
		s.f[sl[5]] -= dIs
	}
	s.reuses += reused
	s.evals += len(s.c.FETs) - reused
}

// fetEval computes the drain current and its exact terminal derivatives.
//
// The smooth model is I = sign · ISat · g(u) · tanh(vds'/VSat) in the
// source-swapped frame (vds' >= 0), with g the logistic gate factor at
// u = (vgs' - Vt)/SS. Writing F(vgs, vds) for the current as a function of
// the polarity-mapped terminal differences, the chain rule through the
// swap (vgs' = vgs - vds, vds' = -vds when vds < 0) gives
//
//	vds >= 0:  ∂F/∂vgs = ISat·g′/SS·tanh,   ∂F/∂vds = ISat·g·sech²/VSat
//	vds <  0:  ∂F/∂vgs = -ISat·g′/SS·tanh,  ∂F/∂vds = ISat·(g′/SS·tanh + g·sech²/VSat)
//
// (g′, tanh, sech² evaluated at the swapped arguments). Both polarities
// then map identically onto the terminals: dI/dvg = ∂F/∂vgs,
// dI/dvd = ∂F/∂vds, dI/dvs = -(∂F/∂vgs + ∂F/∂vds) — the p-device mirrors
// the argument mapping and the output sign, and the two flips cancel.
// One exp and one tanh serve the current and all three derivatives, where
// central differences cost six extra model evaluations; the parity test
// pins the two against each other to 1e-9 over a dense grid.
func fetEval(p *device.FETParams, vg, vd, vs float64) (id, dIg, dId, dIs float64) {
	vgs := vg - vs
	vds := vd - vs
	if p.Polarity == device.PType {
		vgs = vs - vg
		vds = vs - vd
	}
	sign := 1.0
	if vds < 0 {
		// Symmetric device: treat the lower terminal as the source.
		vgs -= vds
		vds = -vds
		sign = -1
	}
	u := (vgs - p.Vt) / p.SS
	var g, gp float64
	switch {
	case u > 40:
		g = 1
	case u < -40:
		g = 0
	default:
		g = 1 / (1 + math.Exp(-u))
		gp = g * (1 - g)
	}
	th := math.Tanh(vds / p.VSat)
	dgs := p.ISat * gp / p.SS * th           // |∂F/∂vgs| contribution
	dds := p.ISat * g * (1 - th*th) / p.VSat // saturation-slope contribution
	f := sign * p.ISat * g * th
	var f1, f2 float64
	if sign > 0 {
		f1, f2 = dgs, dds
	} else {
		f1, f2 = -dgs, dgs+dds
	}
	id = f
	if p.Polarity == device.PType {
		id = -f
	}
	return id, f1, f2, -f1 - f2
}

// newton iterates the nonlinear solve at the present time point. The
// static stamps and the per-time-point RHS are assembled once; each
// iteration copy-restores them, re-applies only the FET linearizations
// and runs the compiled factorization in place — the loop allocates
// nothing.
func (s *state) newton() error {
	if !s.staticOK {
		s.stampStatic()
	}
	s.stampStep()
	for it := 0; it < maxNewton; it++ {
		s.iters++
		// We assemble full equations in terms of absolute unknowns, so
		// the solve yields x_new directly.
		copy(s.b, s.bStep)
		copy(s.f, s.fStatic)
		s.stampFETs()
		if bad := s.pl.factor(s.f); bad >= 0 {
			col := int(s.pl.colOf[bad])
			return fmt.Errorf("spice: singular matrix at %s (elimination step %d of %d)",
				s.c.unknownName(col), bad, s.dim)
		}
		s.pl.solve(s.b, s.f, s.w)
		// Damped update and convergence check on node voltages.
		conv := true
		for i := 0; i < s.dim; i++ {
			d := s.b[i] - s.x[i]
			if i < s.n {
				if math.Abs(d) > vTol {
					conv = false
				}
				if d > maxStep {
					d = maxStep
				} else if d < -maxStep {
					d = -maxStep
				}
			}
			s.x[i] += d
		}
		if conv {
			return nil
		}
	}
	return fmt.Errorf("spice: Newton did not converge at t=%.3e", s.t)
}

// op solves the DC operating point from the present estimate: a direct
// Newton solve, then the gmin ladder if that fails.
func (s *state) op() error {
	if s.newton() == nil {
		return nil
	}
	for _, g := range gminLadder {
		s.setGmin(g)
		if err := s.newton(); err != nil {
			return fmt.Errorf("spice: operating point: %w", err)
		}
	}
	return nil
}

// Workspace holds the solver scratch and waveform storage one goroutine
// reuses across repeated solves: characterization sweeps and Monte Carlo
// loops run thousands of near-identical transients, and reusing the
// workspace keeps them off the garbage collector entirely. The zero value
// is ready to use. A Workspace is not safe for concurrent use; give each
// worker its own.
type Workspace struct {
	st  state
	res Result
}

// OP computes the DC operating point: node voltages (index node-1)
// followed by the voltage-source branch currents. It first tries a
// direct solve, then falls back to gmin stepping.
func (c *Circuit) OP() ([]float64, error) {
	var ws Workspace
	s := &ws.st
	if err := s.init(c); err != nil {
		return nil, err
	}
	if err := s.op(); err != nil {
		return nil, err
	}
	return s.x[:s.dim], nil
}

// Probes names the signals a transient records. Only probed signals are
// stored: a delay testbench of a few hundred unknowns is measured on a
// handful of nodes, and recording every node of every timestep would
// cost megabytes per solve for nothing.
type Probes struct {
	// Nodes are recorded node voltages, by node name.
	Nodes []string
	// Sources are recorded voltage-source branch currents, by the index
	// AddV returned.
	Sources []int
	// Stop, when set, ends the transient once its measurement is
	// decided. It is asked after every timestep with the Result holding
	// the samples recorded so far, and the transient returns that prefix
	// at the first step where it reports true; nil runs the whole
	// window. A measurement is prefix-stable when every number it reads
	// is the first crossing after a bound that is itself an earlier
	// first crossing (or a constant): the samples before the stop are
	// the whole window's, bit for bit, so such a measurement reads the
	// same float64 on any prefix it succeeds on. An integral over the
	// window is not prefix-stable. Stop runs once per step, so it must
	// allocate nothing, and ensemble lanes share one Probes, so it must
	// be safe for concurrent use.
	Stop func(*Result) bool
}

// Result holds the probed waveforms of a transient.
type Result struct {
	Circuit *Circuit
	Times   []float64
	// Probes is what the transient recorded: V[i] is the voltage of
	// Probes.Nodes[i] at each of Times, IV[i] the branch current of
	// Probes.Sources[i] (positive current flows from P to N inside the
	// source).
	Probes Probes
	V      [][]float64
	IV     [][]float64

	nodes []int       // node index of each probed node
	rows  []int32     // state row of each probe: nodes, then sources
	waves [][]float64 // V and IV, back to back
}

// reset resolves the probes against the circuit and sizes the result for
// a run of steps+1 samples, reusing the waveform storage of a previous
// run when it is big enough; the transient then trims the Result to
// the samples it has recorded, so a run stopped early leaves nothing a
// later run on the workspace can read. An unknown node or source fails
// here, before any solving.
func (r *Result) reset(s *state, steps int, p Probes) error {
	c := s.c
	r.Circuit, r.Probes = c, p
	r.nodes, r.rows = r.nodes[:0], r.rows[:0]
	for _, name := range p.Nodes {
		i, ok := c.nodeIndex[name]
		if !ok {
			return fmt.Errorf("spice: probe of unknown node %q", name)
		}
		r.nodes = append(r.nodes, i)
		r.rows = append(r.rows, int32(s.row(i)))
	}
	for _, vi := range p.Sources {
		if vi < 0 || vi >= s.m {
			return fmt.Errorf("spice: probe of unknown voltage source %d", vi)
		}
		r.rows = append(r.rows, int32(s.n+vi))
	}
	samples := steps + 1
	r.Times = growFloats(r.Times, samples)
	r.waves = growWaves(r.waves, len(r.rows), samples)
	r.V, r.IV = r.waves[:len(p.Nodes)], r.waves[len(p.Nodes):]
	return nil
}

// growWaves sizes an outer×samples waveform matrix, reusing capacity.
func growWaves(w [][]float64, outer, samples int) [][]float64 {
	if cap(w) < outer {
		w = make([][]float64, outer)
	} else {
		w = w[:outer]
	}
	for i := range w {
		w[i] = growFloats(w[i], samples)
	}
	return w
}

// Transient runs a fixed-step trapezoidal transient from 0 to tstop with
// the given number of steps, recording the probed signals; the DC
// operating point at t=0 initializes state. The Result holds samples
// 0..steps, or 0..k when probes.Stop reports true after step k. The
// solver scratch and the returned Result's waveform storage live in ws,
// so a loop of same-shaped solves stops allocating after the first; the
// Result aliases ws and is only valid until the next solve on it. A nil
// ws is a one-shot solve. ctx is checked once per timestep: a cancelled
// transient stops with an error wrapping ctx's. Every deadlineEvery
// steps the clock is also read against ctx's deadline, so a transient
// past it stops with an error wrapping context.DeadlineExceeded even
// while the timer that would cancel ctx waits for a processor.
func (c *Circuit) Transient(ctx context.Context, ws *Workspace, tstop float64, steps int, probes Probes) (*Result, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	s := &ws.st
	if err := s.init(c); err != nil {
		return nil, err
	}
	res := &ws.res
	if err := res.reset(s, steps, probes); err != nil {
		return nil, err
	}
	if err := s.op(); err != nil {
		return nil, err
	}
	dt := tstop / float64(steps)
	// record stores sample k and trims the Result to samples 0..k.
	record := func(k int) {
		res.Times = res.Times[:k+1]
		res.Times[k] = s.t
		for i, r := range res.rows {
			w := res.waves[i][:k+1]
			w[k] = s.x[r]
			res.waves[i] = w
		}
	}
	record(0)
	copy(s.xPrev, s.x)
	// Initialize capacitor currents at 0 (consistent DC).
	zeroFloats(s.iPrev)
	s.setDeltaT(dt)
	rows := s.pl.capRow
	done := ctx.Done()
	deadline, timed := ctx.Deadline()
	for k := 1; k <= steps; k++ {
		select {
		case <-done:
			return nil, fmt.Errorf("spice: transient stopped at t=%.3e: %w", s.t, ctx.Err())
		default:
		}
		if timed && k%deadlineEvery == 0 && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("spice: transient stopped at t=%.3e: %w", s.t, context.DeadlineExceeded)
		}
		s.t = float64(k) * dt
		if err := s.newton(); err != nil {
			return nil, err
		}
		// Update capacitor branch currents for the trapezoidal history:
		// i_new = geq*(v_new - v_prev) - i_prev.
		for ci, geq := range s.geq {
			ra, rb := rows[2*ci], rows[2*ci+1]
			vNew := s.x[ra] - s.x[rb]
			vPrev := s.xPrev[ra] - s.xPrev[rb]
			s.iPrev[ci] = geq*(vNew-vPrev) - s.iPrev[ci]
		}
		copy(s.xPrev, s.x)
		record(k)
		if probes.Stop != nil && probes.Stop(res) {
			break
		}
	}
	return res, nil
}
