package coopt

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"cnfetdk/internal/device"
	"cnfetdk/internal/flow"
)

// Candidate is one evaluated (processing, circuit) operating point.
// Index is its deterministic enumeration position (measured point ×
// pitch × drive, row-major), stable across runs.
type Candidate struct {
	Index int `json:"index"`

	// The knobs.
	PitchNM    float64 `json:"pitch_nm"`
	CountCV    float64 `json:"cnt_count_cv"`
	AlignmentP float64 `json:"alignment_p"`
	Drive      float64 `json:"drive"`

	// TubesPerDevice is the mean nominal conducting-tube count a unit
	// device gets at this pitch and drive.
	TubesPerDevice int `json:"tubes_per_device"`

	// Predicted circuit metrics: the measured values rescaled by the
	// calibrated device model.
	AreaLam2    float64 `json:"area_lam2"`
	DelayS      float64 `json:"delay_s"`
	EnergyJ     float64 `json:"energy_j"`
	DelaySigmaS float64 `json:"delay_sigma_s,omitempty"`

	// Predicted functional yield, factored by failure mode.
	Yield      float64 `json:"yield"`
	CountYield float64 `json:"count_yield"`
	AlignYield float64 `json:"align_yield"`

	// The two objectives (lower is better); see ProcessingCost.
	ProcessingCost float64 `json:"processing_cost"`
	CircuitCost    float64 `json:"circuit_cost"`
}

// Baseline records the measured nominal operating point every
// candidate is rescaled from: the library's optimal-pitch, drive-1
// design.
type Baseline struct {
	PitchNM  float64 `json:"pitch_nm"`
	AreaLam2 float64 `json:"area_lam2"`
	DelayS   float64 `json:"delay_s"`
	EnergyJ  float64 `json:"energy_j"`
	// Devices and Tubes count the design's transistors and nominal
	// conducting tubes; MeanBreakP is the tube-weighted probability
	// that a mispositioned tube breaks logic (0 for immune layouts).
	Devices    int     `json:"devices,omitempty"`
	Tubes      int     `json:"tubes,omitempty"`
	MeanBreakP float64 `json:"mean_break_p,omitempty"`
}

// Front is the outcome of one co-optimization search: the feasible
// non-dominated candidates in (processing cost, circuit cost), plus
// the search's provenance.
type Front struct {
	// Spec echoes the normalized search spec (defaults resolved).
	Spec Spec `json:"spec"`
	// Baseline is the measured nominal point.
	Baseline Baseline `json:"baseline"`
	// Evaluated counts every candidate the grid produced; Feasible
	// counts those meeting the yield target.
	Evaluated int `json:"evaluated"`
	Feasible  int `json:"feasible"`
	// Candidates is the Pareto front, sorted by ascending processing
	// cost (ties by circuit cost, then index).
	Candidates []Candidate `json:"candidates"`
}

// CanonicalJSON marshals the front deterministically: every field is a
// pure function of the spec and the measured sweep's canonical report,
// hence byte-identical at any worker count, over the fabric, and across
// reruns.
func (f *Front) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// WriteCSV renders the front as one row per candidate.
func (f *Front) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"index", "pitch_nm", "cnt_count_cv", "alignment_p", "drive",
		"tubes_per_device", "area_lam2", "delay_s", "energy_j",
		"yield", "processing_cost", "circuit_cost",
	}); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range f.Candidates {
		if err := cw.Write([]string{
			strconv.Itoa(c.Index), g(c.PitchNM), g(c.CountCV), g(c.AlignmentP), g(c.Drive),
			strconv.Itoa(c.TubesPerDevice), g(c.AreaLam2), g(c.DelayS), g(c.EnergyJ),
			g(c.Yield), g(c.ProcessingCost), g(c.CircuitCost),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Processing-cost reference points: the cost of a knob setting is
// log2(reference / setting) clamped at zero — "each halving beyond the
// easy setting costs one unit" — summed over the three knobs. The
// references are the easy end of each default grid; the floors keep a
// zero knob (perfect alignment, perfect growth) at a large finite cost
// instead of an unserializable infinity.
const (
	refPitchNM   = 13.0
	refCountCV   = 0.4
	refAlignP    = 0.1
	floorPitchNM = 1.0
	floorCountCV = 1e-3
	floorAlignP  = 1e-4
)

// knobCost is log2(ref/knob), clamped to [0, log2(ref/floor)].
func knobCost(ref, floor, knob float64) float64 {
	if knob < floor {
		knob = floor
	}
	if knob >= ref {
		return 0
	}
	return math.Log2(ref / knob)
}

// measured is one point of the sweep's measured layer.
type measured struct {
	countCV, alignP float64
	tr              *flow.TechResult
}

// Search runs one co-optimization: the measured variation sweep
// through r, then the analytic (pitch × drive) rescue of every
// measured point, feasibility against the yield target, and the
// non-dominated filter. The returned front's canonical JSON is a pure
// function of the normalized spec and the sweep's canonical report.
func Search(ctx context.Context, r Runner, spec Spec) (*Front, error) {
	ns, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	rep, err := r.RunSweep(ctx, ns.SweepSpec())
	if err != nil {
		return nil, err
	}
	// Work from the canonical report: identical whether the sweep ran
	// locally, sharded over the fabric, or at any worker count.
	can := rep.Canonical()

	var points []measured
	for _, pr := range can.Points {
		if pr.Error != "" {
			return nil, fmt.Errorf("coopt: measured point %q failed: %s", pr.ID, pr.Error)
		}
		tr := pr.Result.Techs["cnfet"]
		if tr == nil || tr.DelayS == 0 || tr.AreaLam2 == 0 || tr.EnergyJ == 0 {
			return nil, fmt.Errorf("coopt: measured point %q missing area/delay/energy", pr.ID)
		}
		m := measured{tr: tr}
		if v, ok := pr.Params["cnt_count_cv"].(float64); ok {
			m.countCV = v
		}
		if v, ok := pr.Params["alignment_p"].(float64); ok {
			m.alignP = v
		}
		points = append(points, m)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("coopt: the measured sweep produced no points")
	}

	fo4 := device.DefaultFO4()
	pitchOpt := fo4.OptimalPitchNM(60)

	// The baseline geometry: mean nominal tubes per device from the
	// composed yield accounting (every measured point shares it — same
	// circuit, same library); the analytic fallback covers an all-zero
	// variation grid, where no yield composition ran.
	base := Baseline{
		PitchNM:  pitchOpt,
		AreaLam2: points[0].tr.AreaLam2,
		DelayS:   points[0].tr.DelayS,
		EnergyJ:  points[0].tr.EnergyJ,
	}
	nMeas := math.Round(device.GateWidthNM / pitchOpt)
	for _, m := range points {
		if im := m.tr.Immunity; im != nil && im.Variation != nil && im.Variation.Devices > 0 {
			base.Devices = im.Variation.Devices
			base.Tubes = im.Variation.Tubes
			base.MeanBreakP = im.Variation.MeanBreakP
			nMeas = float64(im.Variation.Tubes) / float64(im.Variation.Devices)
			break
		}
	}
	widthMultMeas := nMeas * pitchOpt / device.GateWidthNM
	delayUnitsMeas := fo4.DelayUnitsAt(nMeas, pitchOpt, widthMultMeas)
	energyUnitsMeas := fo4.EnergyUnitsAt(nMeas, pitchOpt)

	front := &Front{Spec: ns, Baseline: base}
	var cands []Candidate
	idx := 0
	for _, m := range points {
		breakP := base.MeanBreakP
		if im := m.tr.Immunity; im != nil && im.Variation != nil {
			breakP = im.Variation.MeanBreakP
		}
		for _, pitch := range ns.PitchesNM {
			for _, drive := range ns.Drives {
				// Geometry: drive widens every device; a candidate
				// pitch repacks its tubes. Tube count scales with
				// width/pitch.
				nCand := nMeas * drive * pitchOpt / pitch
				nInt := int(math.Round(nCand))
				if nInt < 1 {
					nInt = 1
				}
				widthMult := widthMultMeas * drive

				c := Candidate{
					Index:   idx,
					PitchNM: pitch, CountCV: m.countCV, AlignmentP: m.alignP, Drive: drive,
					TubesPerDevice: nInt,
					AreaLam2:       base.AreaLam2 * drive,
				}
				idx++

				delayScale := fo4.DelayUnitsAt(nCand, pitch, widthMult) / delayUnitsMeas
				energyScale := fo4.EnergyUnitsAt(nCand, pitch) / energyUnitsMeas * drive
				c.DelayS = m.tr.DelayS * delayScale
				c.EnergyJ = m.tr.EnergyJ * energyScale
				if vd := m.tr.VarDelay; vd != nil {
					c.DelaySigmaS = vd.SigmaS * delayScale
				}

				vv := device.Variations{CountCV: m.countCV, AlignmentP: m.alignP}
				c.CountYield, c.AlignYield, c.Yield = 1, 1, 1
				if base.Devices > 0 {
					dev := float64(base.Devices)
					c.CountYield = math.Pow(vv.CountYield(nInt), dev)
					c.AlignYield = math.Pow(vv.AlignYield(nInt, breakP), dev)
					c.Yield = c.CountYield * c.AlignYield
				}

				c.ProcessingCost = knobCost(refPitchNM, floorPitchNM, pitch) +
					knobCost(refCountCV, floorCountCV, m.countCV) +
					knobCost(refAlignP, floorAlignP, m.alignP)
				c.CircuitCost = 0.5 * (c.AreaLam2/base.AreaLam2 + c.EnergyJ/base.EnergyJ)

				front.Evaluated++
				if c.Yield >= ns.YieldTarget {
					front.Feasible++
					cands = append(cands, c)
				}
			}
		}
	}

	front.Candidates = paretoMin2(cands)
	sort.Slice(front.Candidates, func(i, j int) bool {
		a, b := front.Candidates[i], front.Candidates[j]
		if a.ProcessingCost != b.ProcessingCost {
			return a.ProcessingCost < b.ProcessingCost
		}
		if a.CircuitCost != b.CircuitCost {
			return a.CircuitCost < b.CircuitCost
		}
		return a.Index < b.Index
	})
	return front, nil
}

// paretoMin2 keeps the candidates not dominated in (ProcessingCost,
// CircuitCost), both minimized. Duplicate-objective candidates all
// survive (none strictly improves on the other); the deterministic
// sort above fixes their order.
func paretoMin2(cands []Candidate) []Candidate {
	var front []Candidate
	for i, p := range cands {
		dominated := false
		for j, q := range cands {
			if i == j {
				continue
			}
			if q.ProcessingCost <= p.ProcessingCost && q.CircuitCost <= p.CircuitCost &&
				(q.ProcessingCost < p.ProcessingCost || q.CircuitCost < p.CircuitCost) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}
