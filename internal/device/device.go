// Package device provides the compact electrical models of the CNFET
// design kit: a MOS-CNFET model with inter-CNT screening non-idealities
// (the role the Stanford HSPICE model [20] plays in the paper) and a 65nm
// bulk-CMOS reference.
//
// The CNFET model follows the structure the paper leans on (Section V,
// case study 1): per-tube drive behind a fixed source/drain contact
// resistance, per-tube gate capacitance reduced by inter-CNT charge
// screening at small pitch, and drive current degrading super-linearly
// with the same screening (weaker gate control also lowers carrier
// injection). Model constants are calibrated against the paper's measured
// anchors, which device_test.go pins:
//
//	1 CNT/device:        FO4 delay gain ≈ 2.75×, energy/cycle gain ≈ 6.3×
//	optimal pitch ≈ 5nm: FO4 delay gain ≈ 4.2×,  energy/cycle gain ≈ 2.0×
//	pitch 4.5–5.5nm:     FO4 delay within 1% of optimum
//
// Absolute values (25ps CMOS FO4, 1V supply) are representative of a
// low-k/poly industrial 65nm process; only ratios are claimed, since the
// proprietary HSPICE decks are substituted (DESIGN.md ("Device model")).
package device

import "math"

// Tech-level constants shared by both models.
const (
	// Vdd is the supply voltage used throughout the paper's experiments.
	Vdd = 1.0
	// GateWidthNM is the fixed inverter gate width of the Fig 7 sweep;
	// pitch = GateWidthNM / N for N tubes.
	GateWidthNM = 130.0
	// CMOSFO4ps anchors the absolute scale: the reference 65nm CMOS
	// inverter FO4 delay in picoseconds.
	CMOSFO4ps = 25.0
	// CMOSEnergyfJ is the reference CMOS inverter switching energy per
	// cycle in femtojoules (FO4 load).
	CMOSEnergyfJ = 1.75
)

// ScreenParams shapes the inter-CNT screening non-ideality.
type ScreenParams struct {
	// PitchScaleNM is the tanh pitch scale of the gate-capacitance
	// screening factor s(p) = tanh(p / PitchScaleNM).
	PitchScaleNM float64
	// DriveExp makes drive degrade super-linearly: r(p) = s(p)^DriveExp.
	DriveExp float64
}

// FO4Params collects the calibrated constants of the FO4 stage model.
// Capacitances are in model units (1 unit = 2.31 aF at the anchor scale);
// resistances are in units of the per-tube channel resistance.
type FO4Params struct {
	Screen ScreenParams
	// RContact is the fixed source/drain contact resistance in units of
	// the per-tube channel resistance RTube.
	RContact float64
	// CFixed is the pitch-independent load per stage (contacts, local
	// wire) amortized as the tube count grows — the term that makes more
	// tubes pay off at all.
	CFixed float64
	// CDrainPerTube is the per-tube junction capacitance.
	CDrainPerTube float64
	// CGateFO4PerTube is the fan-out-4 gate load per tube before
	// screening (4 × per-tube gate capacitance).
	CGateFO4PerTube float64
	// CEnergyFixed and CEnergyPerTube shape the switching energy/cycle,
	// calibrated independently of the delay path: the paper's energy
	// numbers fold in internal charge and cross-conduction that a single
	// lumped RC cannot reconcile with its delay numbers (the deviation is
	// recorded in DESIGN.md ("Device model")).
	CEnergyFixed   float64
	CEnergyPerTube float64
	// RTubeOhm and CUnitF anchor model units to physical ones.
	RTubeOhm float64
	CUnitF   float64
}

// DefaultFO4 returns the calibrated low-k/poly 65nm CNFET parameters.
// Values were produced by a deterministic fit (random search + pattern
// descent, seed 1) against the paper anchors above.
func DefaultFO4() FO4Params {
	return FO4Params{
		Screen: ScreenParams{
			PitchScaleNM: 2.575416383381359,
			DriveExp:     1.7116486746361104,
		},
		RContact:        1.6766979132256579,
		CFixed:          26.61376732033061,
		CDrainPerTube:   0.011312770064480183,
		CGateFO4PerTube: 0.009688471383684616,
		CEnergyFixed:    10.144,
		CEnergyPerTube:  1.0,
		RTubeOhm:        80e3,
		CUnitF:          2.31e-18,
	}
}

// CapScreen returns s(p) ∈ (0,1], the gate-capacitance screening factor at
// pitch p (nm). Isolated tubes (large pitch) approach 1.
func (sp ScreenParams) CapScreen(pitchNM float64) float64 {
	return math.Tanh(pitchNM / sp.PitchScaleNM)
}

// DriveScreen returns r(p) = s(p)^DriveExp, the per-tube drive degradation.
func (sp ScreenParams) DriveScreen(pitchNM float64) float64 {
	return math.Pow(sp.CapScreen(pitchNM), sp.DriveExp)
}

// Pitch returns the inter-tube pitch in nm for n tubes across the fixed
// gate width.
func Pitch(n int) float64 { return GateWidthNM / float64(n) }

// DelayUnits returns the FO4 stage delay in model units for n tubes
// across the fixed gate width: DelayUnitsAt(n, Pitch(n), 1).
func (p FO4Params) DelayUnits(n int) float64 {
	return p.DelayUnitsAt(float64(n), Pitch(n), 1)
}

// EnergyUnits returns the switching energy per cycle in model units for
// n tubes across the fixed gate width: EnergyUnitsAt(n, Pitch(n)).
func (p FO4Params) EnergyUnits(n int) float64 {
	return p.EnergyUnitsAt(float64(n), Pitch(n))
}

// DelayUnitsAt returns the FO4 stage delay for an explicit device
// geometry: n tubes at pitch pitchNM in a device widthMult unit-widths
// wide (contact resistance scales with exposed width, see CNFET). The
// co-optimization engine uses the ratio of two DelayUnitsAt values to
// rescale a measured delay from the library's nominal geometry to a
// candidate (pitch, drive) pair.
func (p FO4Params) DelayUnitsAt(n, pitchNM, widthMult float64) float64 {
	if n < 1 {
		n = 1
	}
	s := p.Screen.CapScreen(pitchNM)
	r := p.Screen.DriveScreen(pitchNM)
	res := p.RContact/widthMult + 1/(n*r)
	cap := p.CFixed + p.CDrainPerTube*n + p.CGateFO4PerTube*n*s
	return res * cap
}

// EnergyUnitsAt returns the switching energy per cycle for an explicit
// (tubes, pitch) pair.
func (p FO4Params) EnergyUnitsAt(n, pitchNM float64) float64 {
	if n < 1 {
		n = 1
	}
	s := p.Screen.CapScreen(pitchNM)
	return (p.CEnergyFixed + p.CEnergyPerTube*n*s) * Vdd * Vdd
}

// cmosDelayUnits/cmosEnergyUnits: the CMOS reference in the same units,
// fixed by the paper's 1-tube anchors.
func (p FO4Params) cmosDelayUnits() float64  { return 2.75 * p.DelayUnits(1) }
func (p FO4Params) cmosEnergyUnits() float64 { return 6.3 * p.EnergyUnits(1) }

// DelayGain returns the paper's Fig 7 metric: CMOS FO4 delay over CNFET
// FO4 delay for an inverter with n tubes.
func (p FO4Params) DelayGain(n int) float64 {
	return p.cmosDelayUnits() / p.DelayUnits(n)
}

// EnergyGain returns CMOS energy/cycle over CNFET energy/cycle.
func (p FO4Params) EnergyGain(n int) float64 {
	return p.cmosEnergyUnits() / p.EnergyUnits(n)
}

// EDPGain returns the energy-delay-product gain at n tubes.
func (p FO4Params) EDPGain(n int) float64 {
	return p.DelayGain(n) * p.EnergyGain(n)
}

// OptimalN returns the tube count with the best delay gain (searching up
// to maxN) — the Fig 7 optimum.
func (p FO4Params) OptimalN(maxN int) int {
	best, bestN := 0.0, 1
	for n := 1; n <= maxN; n++ {
		if g := p.DelayGain(n); g > best {
			best, bestN = g, n
		}
	}
	return bestN
}

// OptimalPitchNM returns the pitch at the delay-gain optimum.
func (p FO4Params) OptimalPitchNM(maxN int) float64 {
	return Pitch(p.OptimalN(maxN))
}

// DelayPS converts a CNFET stage delay to picoseconds via the CMOS anchor.
func (p FO4Params) DelayPS(n int) float64 {
	return CMOSFO4ps / p.DelayGain(n)
}

// EnergyFJ converts a CNFET stage energy to femtojoules via the anchor.
func (p FO4Params) EnergyFJ(n int) float64 {
	return CMOSEnergyfJ / p.EnergyGain(n)
}
