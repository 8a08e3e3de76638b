package cells

import (
	"context"
	"errors"
	"fmt"

	"cnfetdk/internal/device"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/spice"
)

// Timing is one measured point of an arc's characterization grid.
type Timing struct {
	Cell     string
	Input    string
	LoadF    float64 // load capacitance (F)
	SlewInS  float64 // input transition time of the stimulus edge (s)
	DelayS   float64 // propagation delay (s), average of rise/fall
	SlewOutS float64 // output transition time (s), ramp-equivalent 20–80 average
	EnergyJ  float64 // supply energy per full output cycle (J)
}

// sensitizingVector finds values for the side inputs such that toggling
// the probed input toggles the cell output, and returns the per-input
// levels plus the output value when the probed input is low.
func sensitizingVector(g *logic.Expr, inputs []string, probe string) (map[string]bool, error) {
	tab := logic.TableOf(g, inputs)
	k := -1
	for i, n := range inputs {
		if n == probe {
			k = i
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("cells: input %q not found", probe)
	}
	for v := 0; v < tab.Rows(); v++ {
		if v>>uint(k)&1 == 1 {
			continue
		}
		if tab.Get(v) != tab.Get(v|1<<uint(k)) {
			env := map[string]bool{}
			for i, n := range inputs {
				env[n] = v>>uint(i)&1 == 1
			}
			return env, nil
		}
	}
	return nil, fmt.Errorf("cells: input %q cannot be sensitized", probe)
}

// Characterization testbench constants: the stimulus period and the
// fixed-step count of one arc's transient.
const (
	ArcPeriod = 2000e-12
	ArcSteps  = 4000
)

// arcNodes are the testbench nets every arc measurement reads.
var arcNodes = []string{"in", "out"}

// DefaultSlewS is the 5 ps input edge of the reference characterization
// point: the first row of the default NLDM grid, the row the cell
// energy is read from, and the edge the variation ensembles drive.
const DefaultSlewS = 5e-12

// ErrBadAxis reports an empty or non-positive characterization axis.
var ErrBadAxis = errors.New("cells: bad characterization axis")

// checkAxis rejects an empty axis and any point that is not > 0.
func checkAxis(name string, xs []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("%w: empty %s axis", ErrBadAxis, name)
	}
	for _, x := range xs {
		if !(x > 0) {
			return fmt.Errorf("%w: %s %g", ErrBadAxis, name, x)
		}
	}
	return nil
}

// ArcCircuit builds the characterization testbench of one (cell, input)
// arc at an output load and input slew: a VDD rail, a pulse source on
// net "in" driving the probed input with slewS edges, side inputs tied
// to a sensitizing vector, the cell instance with its output on net
// "out", and the load capacitor. It returns the circuit and the VDD
// source index for supply-energy probing. Sweeping loadF (> 0) and
// slewS changes only element values, never topology, so a whole grid
// of testbenches shares one factorization plan.
func (l *Library) ArcCircuit(c *Cell, input string, loadF, slewS float64) (*spice.Circuit, int, error) {
	env, err := sensitizingVector(c.Gate.PullDown, c.Gate.Inputs, input)
	if err != nil {
		return nil, 0, err
	}
	ckt := spice.New()
	vddIdx := ckt.AddV("vdd", "VDD", "0", spice.DC(device.Vdd))
	ckt.AddV("vin", "in", "0", spice.Pulse{
		V0: 0, V1: device.Vdd, Delay: ArcPeriod / 4,
		Rise: slewS, Fall: slewS, W: ArcPeriod / 2, Period: ArcPeriod,
	})
	conns := map[string]string{"OUT": "out"}
	for _, n := range c.Gate.Inputs {
		if n == input {
			conns[n] = "in"
			continue
		}
		level := "0"
		if env[n] {
			level = "VDD"
		}
		conns[n] = level
	}
	if err := l.Instantiate(ckt, "x1", c, conns); err != nil {
		return nil, 0, err
	}
	if loadF > 0 {
		ckt.AddC("cload", "out", "0", loadF)
	}
	return ckt, vddIdx, nil
}

// Characterize measures one arc of the cell over an NLDM (input slew ×
// output load) grid and returns the Timing rows indexed [slew][load]; a
// single-point or 1-D sweep is a one-row grid. Every grid point's
// testbench differs only in element values, so the points run one after
// another through one spice.Workspace whose factorization plan is
// computed once and reused. An empty or non-positive axis fails with
// ErrBadAxis; a cancelled ctx stops the running transient.
func (l *Library) Characterize(ctx context.Context, c *Cell, input string, slews, loads []float64) ([][]Timing, error) {
	if err := checkAxis("slew", slews); err != nil {
		return nil, err
	}
	if err := checkAxis("load", loads); err != nil {
		return nil, err
	}
	var ws spice.Workspace
	rows := make([][]Timing, len(slews))
	for si, slew := range slews {
		rows[si] = make([]Timing, len(loads))
		for li, load := range loads {
			t, err := l.measureArc(ctx, &ws, c, input, load, slew)
			if err != nil {
				return nil, err
			}
			rows[si][li] = t
		}
	}
	return rows, nil
}

// measureArc runs one grid point's testbench through the workspace and
// measures its Timing row: propagation delay, output transition time
// (average of the falling edge after the input rise and the rising edge
// after the input fall), and supply energy.
func (l *Library) measureArc(ctx context.Context, ws *spice.Workspace, c *Cell, input string, loadF, slewS float64) (Timing, error) {
	ckt, vddIdx, err := l.ArcCircuit(c, input, loadF, slewS)
	if err != nil {
		return Timing{}, err
	}
	res, err := ckt.Transient(ctx, ws, ArcPeriod, ArcSteps, spice.Probes{Nodes: arcNodes, Sources: []int{vddIdx}})
	if err != nil {
		return Timing{}, fmt.Errorf("cells: %s transient: %w", c.FullName(), err)
	}
	// Delay and slews are searched from each input edge's start, not its
	// midpoint: at the slow-slew/light-load corner the output switches
	// while the input is still slewing (a legitimately negative delay),
	// and its 80% crossing can precede the input's 50% point. The
	// testbench is static before ArcPeriod/4, so the bounds are sound.
	d, err := res.PropDelayFrom("in", "out", device.Vdd, ArcPeriod/4, 3*ArcPeriod/4)
	if err != nil {
		return Timing{}, fmt.Errorf("cells: %s delay: %w", c.FullName(), err)
	}
	fallSlew, err := res.SlewTime("out", device.Vdd, false, ArcPeriod/4)
	if err != nil {
		return Timing{}, fmt.Errorf("cells: %s fall slew: %w", c.FullName(), err)
	}
	riseSlew, err := res.SlewTime("out", device.Vdd, true, 3*ArcPeriod/4)
	if err != nil {
		return Timing{}, fmt.Errorf("cells: %s rise slew: %w", c.FullName(), err)
	}
	e, err := res.SupplyEnergy(vddIdx, 0, ArcPeriod)
	if err != nil {
		return Timing{}, fmt.Errorf("cells: %s energy: %w", c.FullName(), err)
	}
	return Timing{
		Cell: c.FullName(), Input: input, LoadF: loadF, SlewInS: slewS,
		DelayS: d, SlewOutS: (fallSlew + riseSlew) / 2, EnergyJ: e,
	}, nil
}

// ReferenceLoad returns the library's characterization load: four times
// the input capacitance of the 1X inverter (an FO4-equivalent load).
func (l *Library) ReferenceLoad() float64 {
	inv := l.MustGet("INV_1X")
	return 4 * l.InputCap(inv, "A")
}
