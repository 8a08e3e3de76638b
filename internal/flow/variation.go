package flow

import (
	"context"
	"errors"
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
	loV, hiV, err := stimulusLevels(nl, stim)
	if err != nil {
		return nil, err
	}
	proto, _, err := k.BuildCircuit(lib, nl, wire)
	if err != nil {
		return nil, err
	}
	period := addStimulus(proto, stim)
	e, err := cells.NewEnsemble(proto, vr, samples)
	if err != nil {
		return nil, err
	}
	err = e.Run(ctx, k.workers, seed, period, delaySteps, stimProbes(nl, stim, loV, hiV), func(r *spice.Result) (float64, error) {
		return measureStimDelay(r, nl, stim, loV, hiV)
	})
	if err != nil {
		return nil, err
	}
	st := e.Stats()
	return &st, nil
}

// delayPeriod/delaySteps are the stimulus cycle of the design-level
// delay testbench (runDelay and runVarDelay share them).
const (
	delayPeriod = 4000e-12
	delaySteps  = 8000
)

// addStimulus wires the request stimulus into a built design circuit —
// DC sources on the static inputs, a full measurement cycle on the
// pulse input — and returns the cycle period. Statics are added in
// sorted order so circuits built from the same request are identical.
func addStimulus(ckt *spice.Circuit, stim Stimulus) float64 {
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
	return delayPeriod
}

// stimProbes names the nets measureStimDelay reads: the pulse input
// and every primary output the pulse toggles.
func stimProbes(nl *synth.Netlist, stim Stimulus, loV, hiV map[string]bool) spice.Probes {
	nodes := []string{stim.Pulse}
	for _, out := range nl.Outputs {
		if loV[out] != hiV[out] {
			nodes = append(nodes, out)
		}
	}
	return spice.Probes{Nodes: nodes}
}

// measureStimDelay averages the stimulus-to-output propagation delay
// over every primary output the pulse toggles: inverting arcs via the
// standard propagation-delay pair, non-inverting arcs via both
// same-direction edges. loV/hiV are the logic evaluations with the
// pulse low/high. An output that does not cross mid-rail inside the
// delayPeriod window fails with ErrBadRequest: the request's load is
// too slow for the window.
func measureStimDelay(r *spice.Result, nl *synth.Netlist, stim Stimulus, loV, hiV map[string]bool) (float64, error) {
	total, count := 0.0, 0
	for _, out := range nl.Outputs {
		if loV[out] == hiV[out] {
			continue // output insensitive to the pulse
		}
		var d float64
		var err error
		if loV[out] && !hiV[out] {
			// Inverting arc: the usual propagation-delay definition.
			d, err = r.PropDelay(stim.Pulse, out, device.Vdd)
		} else {
			// Non-inverting arc: measure both same-direction edges.
			var dr, df float64
			if dr, err = r.DelayPair(stim.Pulse, out, device.Vdd, true); err == nil {
				df, err = r.DelayPair(stim.Pulse, out, device.Vdd, false)
			}
			d = (dr + df) / 2
		}
		if errors.As(err, new(*spice.CrossingError)) {
			return 0, fmt.Errorf("%w: output %s does not cross mid-rail inside the %g ns delay window: %w",
				ErrBadRequest, out, delayPeriod*1e9, err)
		} else if err != nil {
			return 0, fmt.Errorf("%s arc: %w", out, err)
		}
		total += d
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("%w: stimulus toggles no primary output of %s", ErrBadRequest, nl.Name)
	}
	return total / float64(count), nil
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
