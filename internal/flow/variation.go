package flow

import (
	"context"
	"fmt"
	"sort"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/synth"
)

// runVarDelay measures the design's delay distribution under the
// variation model: it builds the same transistor-level testbench as
// runDelay once and runs it through a cells.Ensemble of samples lanes
// on the kit's worker pool. Lane i's draws depend only on (seed, i), so
// the distribution is identical at any worker count.
func (k *Kit) runVarDelay(ctx context.Context, lib *cells.Library, nl *synth.Netlist, wire map[string]float64, stim Stimulus, vr device.Variations, samples int, seed int64) (*DelayEnsemble, error) {
	arcs, err := stimArcsOf(nl, stim)
	if err != nil {
		return nil, err
	}
	proto, _, err := k.BuildCircuit(lib, nl, wire)
	if err != nil {
		return nil, err
	}
	addStimulus(proto, stim)
	e, err := cells.NewEnsemble(proto, vr, samples)
	if err != nil {
		return nil, err
	}
	err = e.Run(ctx, k.workers, seed, delayWindow, delaySteps, stimProbes(arcs), func(r *spice.Result) (float64, error) {
		return measureStimDelay(r, arcs)
	})
	if err != nil {
		return nil, err
	}
	st := e.Stats()
	return &st, nil
}

// The design-level delay testbench, shared by runDelay and runVarDelay:
// the pulse input's cycle, and the window its transient runs over in
// steps of 0.5 ps. The pulse rises at a quarter of the cycle and falls
// at three quarters; the window ends a quarter past the cycle, at the
// next rising edge, so an output has as long to answer the falling
// edge as the rising one.
const (
	delayPeriod = 4000e-12
	delayWindow = 5000e-12
	delaySteps  = 10000
)

// addStimulus wires the request stimulus into a built design circuit:
// DC sources on the static inputs, the delayPeriod pulse on the pulse
// input. Statics are added in sorted order so circuits built from the
// same request are identical.
func addStimulus(ckt *spice.Circuit, stim Stimulus) {
	statics := make([]string, 0, len(stim.Static))
	for in := range stim.Static {
		statics = append(statics, in)
	}
	sort.Strings(statics)
	for _, in := range statics {
		level := 0.0
		if stim.Static[in] {
			level = device.Vdd
		}
		ckt.AddV("vin."+in, in, "0", spice.DC(level))
	}
	ckt.AddV("vin."+stim.Pulse, stim.Pulse, "0", spice.Pulse{
		V0: 0, V1: device.Vdd, Delay: delayPeriod / 4,
		Rise: 5e-12, Fall: 5e-12, W: delayPeriod / 2, Period: delayPeriod,
	})
}

// stimArcs is what the delay testbench measures: the pulse input and
// every primary output the pulse toggles, in netlist order. stimProbes
// records exactly these nets, so V[0] of a delay transient's Result is
// the pulse and V[1+i] output i.
type stimArcs struct {
	nodes []string // the pulse input, then the toggled outputs
	inv   []bool   // inv[i]: output nodes[1+i] falls when the pulse rises
}

// stimArcsOf resolves a stimulus into the arcs its delay testbench
// measures. A stimulus that toggles no output has no delay, which is
// the request's fault.
func stimArcsOf(nl *synth.Netlist, stim Stimulus) (stimArcs, error) {
	loV, hiV, err := stimulusLevels(nl, stim)
	if err != nil {
		return stimArcs{}, err
	}
	a := stimArcs{nodes: []string{stim.Pulse}}
	for _, out := range nl.Outputs {
		if loV[out] != hiV[out] {
			a.nodes = append(a.nodes, out)
			a.inv = append(a.inv, loV[out])
		}
	}
	if len(a.inv) == 0 {
		return stimArcs{}, fmt.Errorf("%w: stimulus toggles no primary output of %s", ErrBadRequest, nl.Name)
	}
	return a, nil
}

// stimProbes records the arcs' nets and stops the transient at the
// first step on which measureStimDelay succeeds. Every crossing the
// delay reads is the first after an earlier one (spice.Probes.Stop),
// so the stopped prefix holds the whole window's delay bit for bit.
func stimProbes(a stimArcs) spice.Probes {
	return spice.Probes{Nodes: a.nodes, Stop: a.decided}
}

// decided is the delay transient's stop test. Every arc reads the
// pulse's falling edge, which starts after three quarters of the cycle,
// and its last crossing is its output's; so the delay can first be
// decided on a later step in which an output crosses mid-rail, and only
// then does decided walk the arcs. On every other step it costs a
// comparison or a few loads.
func (a stimArcs) decided(r *spice.Result) bool {
	k := len(r.Times) - 1
	if r.Times[k] < 3*delayPeriod/4 {
		return false
	}
	mid := device.Vdd / 2
	for _, w := range r.V[1:] {
		if (w[k-1] < mid && w[k] >= mid) || (w[k-1] > mid && w[k] <= mid) {
			_, _, ok := a.delay(r)
			return ok
		}
	}
	return false
}

// stimMiss is the first crossing a delay measurement lacks, and the
// output whose arc reads it.
type stimMiss struct {
	out   string
	cross spice.CrossingError
}

// delay averages the stimulus-to-output propagation delay over the
// arcs. An inverting arc reads spice.Result.PropDelay's pair of
// opposite edges, a non-inverting arc both same-direction edges; each
// output crossing is the first mid-rail one after the pulse crossing
// it answers. When r lacks a crossing, delay reports the first one it
// lacks instead. It allocates nothing.
func (a stimArcs) delay(r *spice.Result) (float64, stimMiss, bool) {
	mid := device.Vdd / 2
	var miss stimMiss
	ok := true
	cross := func(node int, rising bool, tMin float64) float64 {
		if !ok {
			return 0
		}
		t, hit := r.Cross(r.V[node], mid, rising, tMin)
		if !hit {
			ok = false
			miss.cross = spice.CrossingError{Node: a.nodes[node], Level: mid, Rising: rising, After: tMin}
		}
		return t
	}
	// The pulse's edges: PropDelay reads its fall after its rise, and
	// the non-inverting pair its first fall.
	tInRise := cross(0, true, 0)
	tInFall := cross(0, false, tInRise)
	tInFall0 := cross(0, false, 0)
	total := 0.0
	for i, inv := range a.inv {
		out := 1 + i
		var d float64
		if inv {
			tOutFall := cross(out, false, tInRise)
			tOutRise := cross(out, true, tInFall)
			d = ((tOutFall - tInRise) + (tOutRise - tInFall)) / 2
		} else {
			tOutRise := cross(out, true, tInRise)
			tOutFall := cross(out, false, tInFall0)
			d = ((tOutRise - tInRise) + (tOutFall - tInFall0)) / 2
		}
		if !ok {
			miss.out = a.nodes[out]
			return 0, miss, false
		}
		total += d
	}
	return total / float64(len(a.inv)), miss, true
}

// measureStimDelay is the delay of a delay transient's Result. An
// output that does not cross mid-rail inside the window fails with
// ErrBadRequest: the request's load is too slow for the window.
func measureStimDelay(r *spice.Result, a stimArcs) (float64, error) {
	d, miss, ok := a.delay(r)
	if !ok {
		return 0, fmt.Errorf("%w: output %s does not cross mid-rail inside the %g ns delay window: %w",
			ErrBadRequest, miss.out, delayWindow*1e9, &miss.cross)
	}
	return d, nil
}

// composeVariationYield folds the per-cell verdicts of the immunity
// stage into the design's functional yield, composing the two
// functional failure modes of CNT variation (after Hills et al., "Rapid
// Co-optimization of Processing and Circuit Design to Overcome Carbon
// Nanotube Variations"):
//
//   - Count: a device whose Gaussian conducting-tube draw comes up
//     empty is stuck open (device.Variations.CountYield).
//   - Alignment: each of a device's nominal tubes is mispositioned with
//     probability AlignmentP, and a mispositioned tube breaks its cell's
//     logic with the cell's geometric break probability
//     (device.Variations.AlignYield).
//
// Every instance of a cell contributes its devices' count and alignment
// yields, with the cell's break probability taken from its Monte Carlo
// sample when one ran (mcTubes > 0) and from the exhaustive
// critical-line fraction otherwise. Immune cells have break probability
// 0 either way — the paper's point — so a design of paper layouts loses
// yield only to count variation.
func composeVariationYield(lib *cells.Library, nl *synth.Netlist, vr device.Variations, byCell map[string]cellYieldInput) (*VariationYield, error) {
	vy := &VariationYield{CountYield: 1, AlignYield: 1}
	weightedBreak := 0.0
	for _, inst := range nl.Instances {
		in, ok := byCell[inst.Cell]
		if !ok {
			return nil, fmt.Errorf("flow: variation yield: no verdict for cell %s", inst.Cell)
		}
		for _, tubes := range in.tubes {
			vy.Devices++
			vy.Tubes += tubes
			weightedBreak += in.breakP * float64(tubes)
			vy.CountYield *= vr.CountYield(tubes)
			vy.AlignYield *= vr.AlignYield(tubes, in.breakP)
		}
	}
	if vy.Tubes > 0 {
		vy.MeanBreakP = weightedBreak / float64(vy.Tubes)
	}
	vy.FunctionalYield = vy.CountYield * vy.AlignYield
	return vy, nil
}

// cellYieldInput is one distinct cell's contribution to the design
// yield: its per-device nominal tube counts and its break probability.
type cellYieldInput struct {
	tubes  []int
	breakP float64
}
