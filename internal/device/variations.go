package device

import (
	"fmt"
	"math"
)

// Variations is the serializable CNT process-variation model, the
// first-class input of the processing/circuit co-optimization loop
// (Hills et al., PAPERS.md). Three independent imperfection channels:
//
//   - CNT count: the number of conducting tubes a device actually gets
//     varies around the nominal count implied by the growth pitch.
//     Modeled as Gaussian with standard deviation CountCV × nominal —
//     CountCV is the growth-density coefficient of variation, the
//     "growth quality" processing knob.
//   - Diameter spread: tube diameters vary around the nominal 1.2nm,
//     shifting both drive (thinner tubes carry less current) and
//     threshold (the CNT bandgap scales as 1/d). DiameterSigmaNM is
//     the per-tube diameter standard deviation in nm.
//   - Alignment: each tube is mispositioned (shifted/rotated off its
//     lithographic track) with probability AlignmentP. Whether a
//     mispositioned tube actually breaks the cell's logic is a property
//     of the layout — the immunity package's geometric certificates and
//     Monte Carlo estimate exactly that — so AlignmentP composes with a
//     per-cell break probability rather than being a failure rate
//     itself. Immune layouts (the paper's contribution) have break
//     probability zero, making them insensitive to this knob.
//
// The JSON field names match the sweep axes (sweep.Axes) and the flow
// request fields one-for-one, so a variation point serializes
// identically at every layer. The zero value disables variation
// modeling entirely: every consumer gates on Zero() and takes the
// exact pre-variation code path, which is what keeps zero-variation
// runs byte-identical with the paper goldens.
type Variations struct {
	// CountCV is the coefficient of variation of the per-device
	// conducting-tube count (sigma / nominal). 0 = every device gets
	// exactly its nominal count.
	CountCV float64 `json:"cnt_count_cv,omitempty"`
	// DiameterSigmaNM is the per-tube diameter standard deviation in
	// nm around NominalDiameterNM.
	DiameterSigmaNM float64 `json:"diameter_sigma_nm,omitempty"`
	// AlignmentP is the probability that a tube is mispositioned.
	AlignmentP float64 `json:"alignment_p,omitempty"`
}

// Diameter-channel constants: first-order sensitivities of the compact
// model to tube diameter, anchored at the nominal CVD diameter.
const (
	// NominalDiameterNM is the nominal tube diameter.
	NominalDiameterNM = 1.2
	// VtPerNM is |dVt/dd|: the CNT bandgap is ~0.84/d eV, so the
	// threshold (~Eg/2) moves by 0.42/d² ≈ 0.29 V per nm of diameter
	// at the nominal 1.2nm. Larger diameter → smaller bandgap → lower
	// threshold, hence the negative sign in the draw.
	VtPerNM = 0.29
	// DrivePerNM is the first-order relative drive sensitivity per nm
	// of diameter (larger tubes conduct more).
	DrivePerNM = 0.5
)

// Zero reports whether the model is disabled (all channels zero).
// Consumers gate every variation-aware path on this so the zero value
// reproduces pre-variation behavior exactly.
func (v Variations) Zero() bool {
	return v.CountCV == 0 && v.DiameterSigmaNM == 0 && v.AlignmentP == 0
}

// Validate checks the physical ranges: non-negative spreads and a
// probability in [0, 1].
func (v Variations) Validate() error {
	if v.CountCV < 0 {
		return fmt.Errorf("device: cnt_count_cv %g must be >= 0", v.CountCV)
	}
	if v.DiameterSigmaNM < 0 {
		return fmt.Errorf("device: diameter_sigma_nm %g must be >= 0", v.DiameterSigmaNM)
	}
	if v.AlignmentP < 0 || v.AlignmentP > 1 {
		return fmt.Errorf("device: alignment_p %g outside [0, 1]", v.AlignmentP)
	}
	return nil
}

// DeviceDraw is one sampled device instance: multiplicative factors on
// the nominal compact model. CountFactor is conducting/nominal tubes,
// DriveFactor the diameter-induced drive multiplier, VtShiftV the
// diameter-induced threshold shift.
type DeviceDraw struct {
	CountFactor float64
	DriveFactor float64
	VtShiftV    float64
}

// Apply perturbs a compact model in place. Only the I-V law moves:
// the stamped capacitances belong to the circuit, not the FET element
// (see spice.AddFET), and holding them fixed keeps variation ensembles
// structure-identical — the property plan-sharing batches need.
func (d DeviceDraw) Apply(p *FETParams) {
	p.ISat *= d.CountFactor * d.DriveFactor
	p.Vt += d.VtShiftV
	if p.Vt < 0 {
		p.Vt = 0
	}
}

// Sampler draws per-device variations seed-deterministically. It is a
// value type over an inline splitmix64 generator — no heap state, so
// redrawing an ensemble lane allocates nothing — and the stream is a
// pure function of (Variations, seed, lane): the same lane produces
// the same draws at any worker count, on any platform.
//
// Each Draw consumes exactly two normals (count, then mean diameter)
// regardless of which channels are active, so ensembles that differ in
// one channel's spread still share the other channel's draws.
type Sampler struct {
	v        Variations
	state    uint64
	spare    float64
	hasSpare bool
}

// Sampler returns the draw stream of one ensemble lane. Lanes are
// decorrelated by golden-ratio mixing of the lane index into the seed,
// the same construction the immunity Monte Carlo uses.
func (v Variations) Sampler(seed int64, lane int) Sampler {
	s := uint64(seed) + uint64(lane)*0x9E3779B97F4A7C15
	// One warm-up scramble so nearby seeds start decorrelated.
	s += 0x9E3779B97F4A7C15
	z := (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return Sampler{v: v, state: z ^ (z >> 31)}
}

// next is splitmix64: a full-period 64-bit mixer with no allocation.
func (s *Sampler) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform returns a draw in (0, 1] — the open-at-zero side keeps the
// Box-Muller log argument finite.
func (s *Sampler) uniform() float64 {
	return (float64(s.next()>>11) + 1) / (1 << 53)
}

// norm returns a standard normal via Box-Muller, caching the second
// value of each pair.
func (s *Sampler) norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	r := math.Sqrt(-2 * math.Log(s.uniform()))
	theta := 2 * math.Pi * s.uniform()
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return r * math.Cos(theta)
}

// Draw samples one device with the given nominal tube count.
//
// Count: the conducting count is Gaussian around nominal with sigma
// CountCV × nominal, floored at one tube — the timing ensemble is
// conditional on the device functioning; the zero-tube (stuck-open)
// event is what CountYield accounts for analytically, and folding it
// into the delay distribution would only make transients unmeasurable.
//
// Diameter: drive averages over the device's tubes, so the mean
// diameter shift has sigma DiameterSigmaNM / sqrt(tubes); it scales
// drive by 1 + DrivePerNM·shift (floored well above zero) and moves
// the threshold by -VtPerNM·shift.
func (s *Sampler) Draw(tubes int) DeviceDraw {
	zCount, zDia := s.norm(), s.norm()
	d := DeviceDraw{CountFactor: 1, DriveFactor: 1}
	if tubes < 1 {
		// Not a tube-based device (Tubes == 0, e.g. the CMOS reference):
		// CNT variations do not apply. The two normals are still
		// consumed so the stream stays aligned across technologies.
		return d
	}
	if s.v.CountCV > 0 {
		f := 1 + s.v.CountCV*zCount
		if floor := 1 / float64(tubes); f < floor {
			f = floor
		}
		d.CountFactor = f
	}
	if s.v.DiameterSigmaNM > 0 {
		shift := s.v.DiameterSigmaNM / math.Sqrt(float64(tubes)) * zDia
		g := 1 + DrivePerNM*shift
		if g < 0.05 {
			g = 0.05
		}
		d.DriveFactor = g
		d.VtShiftV = -VtPerNM * shift
	}
	return d
}

// CountYield returns the probability that a device with the given
// nominal tube count gets at least one conducting tube — the
// stuck-open failure mode of count variation. The Gaussian count
// model gives P(K >= 1) = Phi((n-1) / (CountCV·n)).
func (v Variations) CountYield(tubes int) float64 {
	if v.CountCV == 0 {
		return 1
	}
	if tubes < 1 {
		tubes = 1
	}
	n := float64(tubes)
	return phi((n - 1) / (v.CountCV * n))
}

// AlignYield returns the probability that none of a device's tubes
// breaks the cell's logic through mispositioning: each of the nominal
// tubes is mispositioned with probability AlignmentP and a
// mispositioned tube breaks logic with probability breakP — the
// per-cell geometric quantity the immunity package certifies (zero for
// immune layouts) or Monte Carlo estimates.
func (v Variations) AlignYield(tubes int, breakP float64) float64 {
	if v.AlignmentP == 0 || breakP == 0 {
		return 1
	}
	if tubes < 1 {
		tubes = 1
	}
	return math.Pow(1-v.AlignmentP*breakP, float64(tubes))
}

// phi is the standard normal CDF.
func phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
