package spice

import (
	"bytes"
	"strings"
	"testing"

	"cnfetdk/internal/device"
)

// FETEval exposes the kernel's closed-form FET linearization to the
// external parity tests, which hold it against the dense oracle's
// central differences.
var FETEval = fetEval

func TestExportNetlist(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(1))
	c.AddV("vin", "in", "0", Pulse{V0: 0, V1: 1, Delay: 1e-10, Rise: 1e-11, Fall: 1e-11, W: 5e-10, Period: 1e-9})
	c.AddR("r1", "in", "mid", 1e3)
	c.AddC("c1", "mid", "0", 1e-15)
	c.AddFET("mp", "out", "in", "vdd", device.CMOSFET("mp", device.PType, 1.4))
	c.AddFET("mn", "out", "in", "0", device.CMOSFET("mn", device.NType, 1))

	var buf bytes.Buffer
	if err := c.Export(&buf, "inverter testbench"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"* inverter testbench",
		"R0 in mid 1000",
		"V0 vdd 0 DC 1",
		"PULSE(0 1 1e-10 1e-11 1e-11 5e-10 1e-09)",
		".model",
		"PMOS",
		"NMOS",
		".end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n%s", want, out)
		}
	}
	// The p-device threshold must be negative in the model card.
	if !strings.Contains(out, "vto=-0.35") {
		t.Errorf("PMOS vto should be negative:\n%s", out)
	}
	// FET instances reference drain gate source bulk model.
	if !strings.Contains(out, "M0 out in vdd vdd") {
		t.Errorf("MOS instance line malformed:\n%s", out)
	}
}
