package spice

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cnfetdk/internal/device"
)

// Export writes the circuit as a SPICE-compatible text netlist (.sp), so
// designs built with the kit can be cross-checked in external simulators.
// FETs are emitted as behavioural G-elements' closest portable equivalent:
// a .model'd MOSFET reference with the compact model parameters recorded
// as comments, plus explicit gate/drain capacitors (already part of the
// circuit), which keeps the topology exact even where the I-V law is
// simulator-specific.
func (c *Circuit) Export(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", title)
	fmt.Fprintf(&b, "* exported by cnfetdk (%s)\n", c.String())
	for i, r := range c.Resistors {
		fmt.Fprintf(&b, "R%d %s %s %.6g\n", i, c.NodeName(r.A), c.NodeName(r.B), r.R)
	}
	for i, cp := range c.Capacitors {
		fmt.Fprintf(&b, "C%d %s %s %.6g\n", i, c.NodeName(cp.A), c.NodeName(cp.B), cp.C)
	}
	for i, v := range c.VSources {
		fmt.Fprintf(&b, "V%d %s %s %s\n", i, c.NodeName(v.P), c.NodeName(v.N), waveformSpec(v.W))
	}
	models := map[string]device.FETParams{}
	for i, f := range c.FETs {
		mname := modelName(f.P)
		models[mname] = f.P
		fmt.Fprintf(&b, "M%d %s %s %s %s %s\n", i,
			c.NodeName(f.D), c.NodeName(f.G), c.NodeName(f.S),
			c.NodeName(f.S), mname)
	}
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := models[n]
		kind := "NMOS"
		if p.Polarity == device.PType {
			kind = "PMOS"
		}
		fmt.Fprintf(&b, ".model %s %s (level=1 vto=%.3g)\n", n, kind, vto(p))
		fmt.Fprintf(&b, "* %s: isat=%.4g A vsat=%.3g V ss=%.3g V cgate=%.4g F cdrain=%.4g F\n",
			n, p.ISat, p.VSat, p.SS, p.CGate, p.CDrain)
	}
	fmt.Fprintln(&b, ".end")
	_, err := io.WriteString(w, b.String())
	return err
}

func vto(p device.FETParams) float64 {
	if p.Polarity == device.PType {
		return -p.Vt
	}
	return p.Vt
}

func modelName(p device.FETParams) string {
	kind := "n"
	if p.Polarity == device.PType {
		kind = "p"
	}
	return fmt.Sprintf("m%s_%d", kind, int(p.ISat*1e9))
}

func waveformSpec(w Waveform) string {
	switch s := w.(type) {
	case DC:
		return fmt.Sprintf("DC %.6g", float64(s))
	case Pulse:
		return fmt.Sprintf("PULSE(%.6g %.6g %.4g %.4g %.4g %.4g %.4g)",
			s.V0, s.V1, s.Delay, s.Rise, s.Fall, s.W, s.Period)
	default:
		return "DC 0"
	}
}
