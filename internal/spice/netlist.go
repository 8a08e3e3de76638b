// Package spice is a compact circuit simulator: modified nodal analysis
// with Newton-Raphson for the nonlinear FET models, DC operating point
// with gmin stepping, and fixed-step trapezoidal transient analysis with
// delay/energy measurement helpers. Every solve, from a six-unknown cell
// testbench to a multiplier, runs one sparse LU kernel: its symbolic
// work (row matching, fill-reducing ordering, fill pattern, stamp slots)
// is planned once per topology, its numeric factorization is compiled
// into a flat update stream replayed every Newton iteration, and the
// plan is reused across iterations, timesteps and whole solves — and
// shared across structure-identical circuits through Batch. A transient
// records only the nodes and source currents its caller probes, and
// stops at the first timestep after its context is cancelled.
//
// It plays the role of the paper's HSPICE + post-layout analysis kit
// (Fig 5): cell characterization, FO4 chain simulation and the full-adder
// case study all run on this engine.
package spice

import (
	"fmt"
	"math"

	"cnfetdk/internal/device"
)

// Waveform is a time-dependent source value.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is a SPICE-style periodic pulse.
type Pulse struct {
	V0, V1                       float64
	Delay, Rise, Fall, W, Period float64
}

// At evaluates the pulse at time t.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V0
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		return p.V0 + (p.V1-p.V0)*tt/p.Rise
	case tt < p.Rise+p.W:
		return p.V1
	case tt < p.Rise+p.W+p.Fall:
		return p.V1 - (p.V1-p.V0)*(tt-p.Rise-p.W)/p.Fall
	default:
		return p.V0
	}
}

// Circuit is a flat netlist. Node "0" (alias "GND") is ground.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string

	Resistors  []Resistor
	Capacitors []Capacitor
	VSources   []VSource
	FETs       []FET
}

// Resistor is a two-terminal linear resistor.
type Resistor struct {
	Name string
	A, B int
	R    float64
}

// Capacitor is a two-terminal linear capacitor.
type Capacitor struct {
	Name string
	A, B int
	C    float64
}

// VSource is an independent voltage source; its branch current is a
// solution variable.
type VSource struct {
	Name string
	P, N int
	W    Waveform
}

// FET is a three-terminal transistor using a device.FETParams model. Gate
// capacitance stamps gate-to-ground; drain capacitance drain-to-ground.
type FET struct {
	Name    string
	D, G, S int
	P       device.FETParams
}

// New creates an empty circuit.
func New() *Circuit {
	c := &Circuit{nodeIndex: map[string]int{}}
	c.nodeIndex["0"] = 0
	c.nodeIndex["GND"] = 0
	c.nodeNames = []string{"0"}
	return c
}

// Node interns a node name and returns its index.
func (c *Circuit) Node(name string) int {
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NodeCount returns the number of nodes including ground.
func (c *Circuit) NodeCount() int { return len(c.nodeNames) }

// NodeName returns the interned name of node i.
func (c *Circuit) NodeName(i int) string { return c.nodeNames[i] }

// HasNode reports whether the node name exists.
func (c *Circuit) HasNode(name string) bool {
	_, ok := c.nodeIndex[name]
	return ok
}

// AddR adds a resistor.
func (c *Circuit) AddR(name, a, b string, r float64) {
	c.Resistors = append(c.Resistors, Resistor{Name: name, A: c.Node(a), B: c.Node(b), R: r})
}

// AddC adds a capacitor.
func (c *Circuit) AddC(name, a, b string, f float64) {
	c.Capacitors = append(c.Capacitors, Capacitor{Name: name, A: c.Node(a), B: c.Node(b), C: f})
}

// AddV adds a voltage source and returns its index (for current probing).
func (c *Circuit) AddV(name, p, n string, w Waveform) int {
	c.VSources = append(c.VSources, VSource{Name: name, P: c.Node(p), N: c.Node(n), W: w})
	return len(c.VSources) - 1
}

// AddFET adds a transistor and its model capacitances.
func (c *Circuit) AddFET(name, d, g, s string, p device.FETParams) {
	c.FETs = append(c.FETs, FET{Name: name, D: c.Node(d), G: c.Node(g), S: c.Node(s), P: p})
	if p.CGate > 0 {
		c.AddC(name+".cg", g, "0", p.CGate)
	}
	if p.CDrain > 0 {
		c.AddC(name+".cd", d, "0", p.CDrain)
	}
}

// Clone returns a variant copy for per-lane FET perturbation: the node
// tables and the linear elements (resistors, capacitors, sources) are
// shared read-only with the receiver, and only the FETs slice — the
// mutation surface of variation ensembles, which perturb the I-V law
// but never the stamped capacitances — is copied. A clone therefore
// has the receiver's exact topology, so it runs on a plan-sharing
// Batch lane without replanning, and restoring its FETs from the
// prototype (RestoreFETs) resets it completely.
func (c *Circuit) Clone() *Circuit {
	out := *c
	out.FETs = append([]FET(nil), c.FETs...)
	return &out
}

// RestoreFETs copies the prototype's FET models back into the circuit,
// undoing per-lane perturbations without reallocating. The two
// circuits must have the same device count (clones of one prototype
// always do).
func (c *Circuit) RestoreFETs(proto *Circuit) {
	copy(c.FETs, proto.FETs)
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{%d nodes, %dR %dC %dV %dFET}",
		c.NodeCount(), len(c.Resistors), len(c.Capacitors),
		len(c.VSources), len(c.FETs))
}
