package device

import "math"

// Polarity distinguishes n- and p-type FETs.
type Polarity int

// Device polarities.
const (
	NType Polarity = iota
	PType
)

// FETParams is the circuit-simulator-facing compact model of one FET
// (CNFET or MOSFET). The I-V law, implemented by the simulator's fet
// element, is a smooth single-piece saturating curve:
//
//	Id = ISat · g(Vgs) · tanh(Vds / VSat),  g = logistic((|Vgs|-Vt)/SS)
//
// differentiable everywhere so Newton-Raphson converges reliably.
type FETParams struct {
	Name     string
	Polarity Polarity
	// ISat is the saturated drive current magnitude at |Vgs| = Vdd (A).
	ISat float64
	// Vt is the threshold voltage magnitude (V).
	Vt float64
	// VSat is the drain-saturation voltage scale (V).
	VSat float64
	// SS is the gate-transition smoothness (V).
	SS float64
	// CGate is the gate input capacitance (F).
	CGate float64
	// CDrain is the drain junction capacitance (F).
	CDrain float64
	// Tubes is the nominal conducting-tube count of a CNFET (0 for
	// technologies without tubes). Variation ensembles scale their
	// per-device draws by it; the I-V law itself never reads it.
	Tubes int
}

// driveFitFactor maps the analytic effective resistance onto the smooth
// I-V law so that transient FO4 delays track the closed-form model; fixed
// by the estimator-vs-simulator test in the spice package.
const driveFitFactor = 1.55

// CNFET returns the compact-model parameters of a CNFET with n tubes at
// the pitch implied by the device width (widthNM), including screening
// degradation. p- and n-CNFETs share parameters (the paper: "similar
// electrical characteristics", hence equal sizing).
func CNFET(name string, pol Polarity, n int, widthNM float64, p FO4Params) FETParams {
	if n < 1 {
		n = 1
	}
	pitch := widthNM / float64(n)
	s := p.Screen.CapScreen(pitch)
	r := p.Screen.DriveScreen(pitch)
	// Contact resistance scales inversely with device width (wider
	// devices expose proportionally more contact area); the calibrated
	// RContact is per unit (130nm) width.
	rEff := p.RTubeOhm * (p.RContact/(widthNM/GateWidthNM) + 1/(float64(n)*r))
	return FETParams{
		Name:     name,
		Polarity: pol,
		Tubes:    n,
		ISat:     Vdd / rEff * driveFitFactor,
		Vt:       0.3,
		VSat:     0.35,
		SS:       0.04,
		// The stage load split: each receiver gate carries a quarter of
		// the FO4 per-tube load plus a 1/16 share of the fixed stage
		// parasitic; the driver drain carries the rest (see device.go).
		CGate:  (p.CFixed/16 + float64(n)*p.CGateFO4PerTube/4*s) * p.CUnitF,
		CDrain: (p.CFixed*0.75 + float64(n)*p.CDrainPerTube) * p.CUnitF,
	}
}

// CNFETAtOptimalPitch returns a CNFET sized to the given width multiple of
// the unit transistor (4λ = 130nm) with tubes at the calibrated optimal
// pitch — how the standard-cell library instantiates devices.
func CNFETAtOptimalPitch(name string, pol Polarity, widthMult float64, p FO4Params) FETParams {
	widthNM := GateWidthNM * widthMult
	pitch := p.OptimalPitchNM(60)
	n := int(math.Round(widthNM / pitch))
	if n < 1 {
		n = 1
	}
	return CNFET(name, pol, n, widthNM, p)
}

// CMOS 65nm reference constants, fixed by the anchor FO4 delay and energy:
// a symmetric inverter with 1.75fF total switched load and ~20.7kΩ
// effective drive.
const (
	cmosCIn    = 0.35e-15 // input capacitance of a 1x inverter (F)
	cmosCDrain = 0.35e-15 // drain parasitic of a 1x inverter (F)
)

// CMOSREff returns the effective switching resistance of the reference
// CMOS inverter, derived from the FO4 anchor: FO4 = 0.69·R·(Cd + 4Cin).
func CMOSREff() float64 {
	cNode := cmosCDrain + 4*cmosCIn
	return CMOSFO4ps * 1e-12 / (0.69 * cNode)
}

// CMOSFET returns the 65nm reference MOSFET scaled to a width multiple of
// the unit transistor. The p-device of a CMOS gate is instantiated at
// 1.4× the n-width by the library, so both polarities share these
// normalized parameters.
func CMOSFET(name string, pol Polarity, widthMult float64) FETParams {
	rEff := CMOSREff() / widthMult
	return FETParams{
		Name:     name,
		Polarity: pol,
		ISat:     Vdd / rEff * driveFitFactor,
		Vt:       0.35,
		VSat:     0.35,
		SS:       0.04,
		CGate:    cmosCIn * widthMult,
		CDrain:   cmosCDrain * widthMult,
	}
}
