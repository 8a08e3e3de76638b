// Package rules captures the lambda-based design rules used throughout the
// CNFET design kit.
//
// The paper customizes an industrial 65nm CMOS platform: from the CNT plane
// up, the metal stack and lithography limits of the 65nm node are reused
// (poly gates, low-k dielectric), so CMOS and CNFET cells share one rule
// deck and can be compared at a common node. The proprietary deck itself is
// not available; this package provides the self-consistent lambda
// abstraction described in DESIGN.md ("Lambda design rules"), with every
// value the paper states explicitly (Lg = 2λ, etch ≥ 2λ, via ≈ 3λ, CMOS
// n/p diffusion separation 10λ, CNFET PUN-PDN separation 6λ, pMOS = 1.4 ×
// nMOS) wired in.
package rules

import "cnfetdk/internal/geom"

// Tech identifies one of the two technologies sharing the 65nm node.
type Tech int

// Supported technologies.
const (
	CMOS Tech = iota
	CNFET
)

// String returns the technology name.
func (t Tech) String() string {
	if t == CMOS {
		return "CMOS"
	}
	return "CNFET"
}

// Rules is a lambda design-rule deck. All distances are geom.Coord
// (quarter-lambda units).
type Rules struct {
	// LambdaNM is the physical size of one lambda in nanometres.
	// At the 65nm node the paper uses 2λ = 65nm, so λ = 32.5nm.
	LambdaNM float64

	// GateLen is the drawn gate length Lg (2λ).
	GateLen geom.Coord
	// ContactW is the width of a source/drain metal contact column
	// (Ls = Ld = 3λ; the paper notes vias are ~3λ, wider than the gate).
	ContactW geom.Coord
	// GateContactGap is Lgs = Lgd, the gate to source/drain contact
	// spacing (1λ).
	GateContactGap geom.Coord
	// GateGateGap is the spacing between two gates sharing a diffusion
	// (doped CNT) region with no contact between them (2λ).
	GateGateGap geom.Coord
	// EtchW is the minimum width of an etched (CNT cut) region, limited
	// by lithography to 2λ (65nm at the 65nm node).
	EtchW geom.Coord
	// ViaW is the via size (~3λ); vertical gating needs a via on top of
	// a gate, which costs area because ViaW > GateLen.
	ViaW geom.Coord
	// NetworkGap is the vertical separation between the PUN and PDN
	// regions of a cell: 10λ for CMOS (n-diffusion to p-diffusion rule),
	// 6λ for CNFET (limited by the input pin size, not lithography).
	NetworkGap geom.Coord
	// ActiveEndcap is the extension of the active strip beyond the
	// outermost contact on each cell edge (1λ).
	ActiveEndcap geom.Coord
	// RailH is the height of each supply rail strip added to assembled
	// standard cells (4λ).
	RailH geom.Coord
	// PToNRatio is the pMOS/nMOS width ratio needed for symmetric drive.
	// 1.4 for CMOS at 65nm; 1.0 for CNFETs (n and p tubes have similar
	// electrical characteristics).
	PToNRatio float64
	// MinTransW is the smallest legal transistor (active strip) width.
	MinTransW geom.Coord
}

// Default65nm returns the shared lambda deck for the given technology at
// the 65nm node.
func Default65nm(t Tech) Rules {
	r := Rules{
		LambdaNM:       32.5,
		GateLen:        geom.Lambda(2),
		ContactW:       geom.Lambda(3),
		GateContactGap: geom.Lambda(1),
		GateGateGap:    geom.Lambda(2),
		EtchW:          geom.Lambda(2),
		ViaW:           geom.Lambda(3),
		ActiveEndcap:   geom.Lambda(1),
		RailH:          geom.Lambda(4),
		MinTransW:      geom.Lambda(3),
	}
	switch t {
	case CMOS:
		r.NetworkGap = geom.Lambda(10)
		r.PToNRatio = 1.4
	case CNFET:
		r.NetworkGap = geom.Lambda(6)
		r.PToNRatio = 1.0
	}
	return r
}
