package spice

import "fmt"

// Wave returns one probed node's waveform. Asking for a node the
// transient did not probe is an error, not an empty waveform.
func (r *Result) Wave(node string) ([]float64, error) {
	i, ok := r.Circuit.nodeIndex[node]
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", node)
	}
	for j, ni := range r.nodes {
		if ni == i {
			return r.V[j], nil
		}
	}
	return nil, fmt.Errorf("spice: node %q was not probed", node)
}

// CrossingError reports a waveform that does not cross a level in the
// asked direction after a time: the transient ended first.
type CrossingError struct {
	Node   string
	Level  float64
	Rising bool
	After  float64
}

func (e *CrossingError) Error() string {
	dir := "rising"
	if !e.Rising {
		dir = "falling"
	}
	return fmt.Sprintf("spice: no %s crossing of %s through %.3f after %.3e", dir, e.Node, e.Level, e.After)
}

// CrossTime returns the first time after tMin at which the node crosses
// level in the given direction, linearly interpolated. A node that never
// does fails with a *CrossingError.
func (r *Result) CrossTime(node string, level float64, rising bool, tMin float64) (float64, error) {
	w, err := r.Wave(node)
	if err != nil {
		return 0, err
	}
	if t, ok := r.Cross(w, level, rising, tMin); ok {
		return t, nil
	}
	return 0, &CrossingError{Node: node, Level: level, Rising: rising, After: tMin}
}

// Cross is CrossTime on a recorded waveform, one of V or IV: the first
// time after tMin at which w crosses level in the given direction,
// linearly interpolated, and false when it does not. It allocates
// nothing, so a Probes.Stop test can ask it after every step.
func (r *Result) Cross(w []float64, level float64, rising bool, tMin float64) (float64, bool) {
	for k := 1; k < len(w); k++ {
		if r.Times[k] < tMin {
			continue
		}
		a, b := w[k-1], w[k]
		var hit bool
		if rising {
			hit = a < level && b >= level
		} else {
			hit = a > level && b <= level
		}
		if hit {
			f := (level - a) / (b - a)
			return r.Times[k-1] + f*(r.Times[k]-r.Times[k-1]), true
		}
	}
	return 0, false
}

// PropDelay measures the propagation delay between the in and out nodes at
// the 50% level: the average of the out-falling (after in-rising) and
// out-rising (after in-falling) delays, the usual FO4 definition.
func (r *Result) PropDelay(in, out string, vdd float64) (float64, error) {
	mid := vdd / 2
	tInRise, err := r.CrossTime(in, mid, true, 0)
	if err != nil {
		return 0, err
	}
	tOutFall, err := r.CrossTime(out, mid, false, tInRise)
	if err != nil {
		return 0, err
	}
	tInFall, err := r.CrossTime(in, mid, false, tInRise)
	if err != nil {
		return 0, err
	}
	tOutRise, err := r.CrossTime(out, mid, true, tInFall)
	if err != nil {
		return 0, err
	}
	return ((tOutFall - tInRise) + (tOutRise - tInFall)) / 2, nil
}

// PropDelayFrom is PropDelay with explicit edge-start bounds: the output
// crossings are searched from each input edge's start (riseStart,
// fallStart — before which the testbench must be static) rather than
// from the input's 50% point, so a lightly loaded gate that overtakes a
// slow input ramp measures a negative delay instead of erroring. NLDM
// tables legitimately carry such entries at the slow-slew/light-load
// corner. Where PropDelay succeeds, both agree exactly.
func (r *Result) PropDelayFrom(in, out string, vdd, riseStart, fallStart float64) (float64, error) {
	mid := vdd / 2
	tInRise, err := r.CrossTime(in, mid, true, riseStart)
	if err != nil {
		return 0, err
	}
	tOutFall, err := r.CrossTime(out, mid, false, riseStart)
	if err != nil {
		return 0, err
	}
	tInFall, err := r.CrossTime(in, mid, false, fallStart)
	if err != nil {
		return 0, err
	}
	tOutRise, err := r.CrossTime(out, mid, true, fallStart)
	if err != nil {
		return 0, err
	}
	return ((tOutFall - tInRise) + (tOutRise - tInFall)) / 2, nil
}

// SlewTime measures the node's transition time through one edge after
// tMin: the 20%–80% crossing interval scaled to the full swing (÷0.6),
// the ramp-equivalent transition time NLDM slew axes index (a linear
// 0→vdd ramp of duration T spends 0.6·T between 20% and 80%).
func (r *Result) SlewTime(node string, vdd float64, rising bool, tMin float64) (float64, error) {
	lo, hi := 0.2*vdd, 0.8*vdd
	first, second := hi, lo
	if rising {
		first, second = lo, hi
	}
	t1, err := r.CrossTime(node, first, rising, tMin)
	if err != nil {
		return 0, err
	}
	t2, err := r.CrossTime(node, second, rising, t1)
	if err != nil {
		return 0, err
	}
	return (t2 - t1) / 0.6, nil
}

// SupplyEnergy integrates the energy delivered by voltage source vsrc over
// [t0, t1] (trapezoidal): E = ∫ V·(-I) dt with the MNA branch-current
// convention (positive branch current flows P→N inside the source, so a
// supply delivering power has negative branch current). The source's
// current must have been probed.
func (r *Result) SupplyEnergy(vsrc int, t0, t1 float64) (float64, error) {
	j := -1
	for k, s := range r.Probes.Sources {
		if s == vsrc {
			j = k
			break
		}
	}
	if j < 0 {
		return 0, fmt.Errorf("spice: source %d was not probed", vsrc)
	}
	src := r.Circuit.VSources[vsrc]
	iv := r.IV[j]
	e := 0.0
	for k := 1; k < len(r.Times); k++ {
		ta, tb := r.Times[k-1], r.Times[k]
		if tb <= t0 || ta >= t1 {
			continue
		}
		va, vb := src.W.At(ta), src.W.At(tb)
		pa := va * -iv[k-1]
		pb := vb * -iv[k]
		e += (pa + pb) / 2 * (tb - ta)
	}
	return e, nil
}
