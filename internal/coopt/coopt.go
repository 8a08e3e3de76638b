// Package coopt is the processing/circuit co-optimization engine: it
// searches the joint space of CNT processing knobs (inter-tube pitch,
// growth quality, alignment) and circuit knobs (drive sizing) for the
// cheapest ways to hit a functional-yield target, and returns the
// Pareto front of processing cost versus circuit cost.
//
// The search runs in two layers. The measured layer expands the
// variation knobs that change what a transistor-level simulation sees
// — CNT count CV and alignment probability — into a sweep.Spec and
// runs it through any Runner (a local sweep kit or a fabric
// coordinator): each point yields the design's placed area, simulated
// delay/energy, delay-distribution ensemble and composed functional
// yield. The analytic layer then rescales every measured point across
// the (pitch × drive) grid with the calibrated device model
// (device.FO4Params.DelayUnitsAt / EnergyUnitsAt): pitch and drive
// move tube counts, screening and contact resistance in closed form,
// so the grid costs arithmetic, not simulations.
//
// The front is a pure function of the sweep's canonical report and the
// spec's grids, so its canonical JSON is byte-identical at any worker
// count, over the fabric or in-process, and across reruns — the same
// determinism contract the sweep engine makes. Like a sweep.Spec, a
// Spec says what to search, not how to run it: the measured sweep fans
// out on its runner's own bound. See DESIGN.md
// ("Variation model & co-optimization").
//
// Quickstart (three lines from a flow kit to a front):
//
//	kit, _ := flow.New(ctx)
//	front, _ := coopt.Search(ctx, coopt.KitRunner{Kit: kit}, coopt.Spec{Circuit: "mux2", YieldTarget: 0.99})
//	front.WriteCSV(os.Stdout)
package coopt

import (
	"context"
	"fmt"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// Spec declares one co-optimization search: the design, the yield
// target, and the grids of processing and circuit knobs to explore.
// Zero-valued grids select the defaults below.
type Spec struct {
	// Circuit names the registry circuit to co-optimize (required).
	Circuit string `json:"circuit"`
	// Placement selects the CNFET placement scheme ("rows", "shelves";
	// empty = flow default).
	Placement string `json:"placement,omitempty"`
	// YieldTarget is the functional-yield floor a candidate must meet
	// to be feasible (0 selects DefaultYieldTarget).
	YieldTarget float64 `json:"yield_target,omitempty"`

	// PitchesNM grids the inter-tube pitch processing knob in nm
	// (denser pitch = more drive per width, harder lithography).
	PitchesNM []float64 `json:"pitches_nm,omitempty"`
	// CountCVs grids the CNT count coefficient of variation — the
	// growth-quality knob. Measured axis: each value reruns the
	// variation ensemble and yield composition.
	CountCVs []float64 `json:"cnt_count_cvs,omitempty"`
	// AlignmentPs grids the tube misplacement probability — the
	// alignment knob. Measured axis.
	AlignmentPs []float64 `json:"alignment_ps,omitempty"`
	// Drives grids the circuit sizing knob: a uniform width multiplier
	// on every device (area and energy scale with it, delay improves).
	Drives []float64 `json:"drives,omitempty"`
	// DiameterSigmaNM fixes the per-tube diameter spread in nm for the
	// whole search (a material property, not a searched knob).
	DiameterSigmaNM float64 `json:"diameter_sigma_nm,omitempty"`

	// MCTubes sizes the immunity Monte Carlo sample per network (0 =
	// deterministic critical-line certificates only).
	MCTubes int `json:"mc_tubes,omitempty"`
	// VarSamples sizes the per-point delay ensemble (0 selects the flow
	// default).
	VarSamples int `json:"var_samples,omitempty"`
	// Seed seeds the ensembles and Monte Carlo samples.
	Seed int64 `json:"seed,omitempty"`
}

// DefaultYieldTarget is the functional-yield floor used when the spec
// does not choose one.
const DefaultYieldTarget = 0.99

// The default knob grids: pitch from the paper's Fig 7 optimum up to
// relaxed lithography, growth CV from heroic to easy, alignment from
// near-perfect sorting to as-grown, drive up to 2x.
var (
	defaultPitchesNM   = []float64{5, 6.5, 8, 10, 13}
	defaultCountCVs    = []float64{0.05, 0.1, 0.2, 0.4}
	defaultAlignmentPs = []float64{0.01, 0.05, 0.1}
	defaultDrives      = []float64{1, 1.5, 2}
)

// normalized returns a copy with defaults resolved and the grids
// validated.
func (s Spec) normalized() (Spec, error) {
	if s.Circuit == "" {
		return s, fmt.Errorf("coopt: spec needs a circuit")
	}
	if s.YieldTarget == 0 {
		s.YieldTarget = DefaultYieldTarget
	}
	if s.YieldTarget < 0 || s.YieldTarget > 1 {
		return s, fmt.Errorf("coopt: yield_target %g outside [0, 1]", s.YieldTarget)
	}
	if len(s.PitchesNM) == 0 {
		s.PitchesNM = append([]float64(nil), defaultPitchesNM...)
	}
	if len(s.CountCVs) == 0 {
		s.CountCVs = append([]float64(nil), defaultCountCVs...)
	}
	if len(s.AlignmentPs) == 0 {
		s.AlignmentPs = append([]float64(nil), defaultAlignmentPs...)
	}
	if len(s.Drives) == 0 {
		s.Drives = append([]float64(nil), defaultDrives...)
	}
	for _, p := range s.PitchesNM {
		if p <= 0 {
			return s, fmt.Errorf("coopt: pitch %g nm must be > 0", p)
		}
	}
	for _, cv := range s.CountCVs {
		if cv < 0 {
			return s, fmt.Errorf("coopt: cnt_count_cv %g must be >= 0", cv)
		}
	}
	for _, ap := range s.AlignmentPs {
		if ap < 0 || ap > 1 {
			return s, fmt.Errorf("coopt: alignment_p %g outside [0, 1]", ap)
		}
	}
	for _, d := range s.Drives {
		if d <= 0 {
			return s, fmt.Errorf("coopt: drive %g must be > 0", d)
		}
	}
	if s.DiameterSigmaNM < 0 {
		return s, fmt.Errorf("coopt: diameter_sigma_nm %g must be >= 0", s.DiameterSigmaNM)
	}
	return s, nil
}

// Admit is the search's admission check: the grids must be in range,
// the circuit present, and the measured sweep admitted within limit
// points (sweep.Spec.Admit). The spec is never mutated: the front
// echoes it.
func (s Spec) Admit(limit int) error {
	ns, err := s.normalized()
	if err != nil {
		return err
	}
	_, err = ns.SweepSpec().Admit(limit)
	return err
}

// SweepSpec builds the measured layer: one sweep over the variation
// knobs that require simulation (count CV × alignment), with area,
// delay, energy and immunity analyses on the CNFET technology. Pitch
// and drive deliberately do not appear — they are handled analytically
// by the search, which is what keeps the measured cost at
// |CountCVs|·|AlignmentPs| points regardless of grid size.
func (s Spec) SweepSpec() sweep.Spec {
	return sweep.Spec{
		Name: "coopt/" + s.Circuit,
		Base: flow.Request{
			Circuit:   s.Circuit,
			Techs:     []string{"cnfet"},
			Placement: s.Placement,
			Analyses: []flow.Analysis{
				flow.AnalysisArea, flow.AnalysisDelay,
				flow.AnalysisEnergy, flow.AnalysisImmunity,
			},
			MCTubes:         s.MCTubes,
			Seed:            s.Seed,
			DiameterSigmaNM: s.DiameterSigmaNM,
			VarSamples:      s.VarSamples,
		},
		Axes: sweep.Axes{
			CountCVs:    s.CountCVs,
			AlignmentPs: s.AlignmentPs,
		},
	}
}

// Runner abstracts where the measured sweep executes. sweep execution
// backends satisfying it: KitRunner (in-process) and *fabric.Client
// (a coordinator's worker fleet). Both produce canonically identical
// reports, so Search's output does not depend on the choice.
type Runner interface {
	RunSweep(ctx context.Context, spec sweep.Spec) (*sweep.Report, error)
}

// KitRunner runs the measured sweep in-process on a flow kit.
type KitRunner struct {
	Kit *flow.Kit
}

// RunSweep satisfies Runner.
func (r KitRunner) RunSweep(ctx context.Context, spec sweep.Spec) (*sweep.Report, error) {
	return sweep.Run(ctx, r.Kit, spec)
}
