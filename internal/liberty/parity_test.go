package liberty

import (
	"context"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice/spicetest"
)

// TestArcTestbenchesMatchDenseOracle runs every cell arc testbench of
// both libraries at the four corners of the NLDM (slew × load) grid
// through the compiled sparse kernel and through the dense oracle, and
// requires every node of every timestep to agree within 1e-9 V. The
// kernel factors without value pivoting, in an order fixed by topology
// alone; these dozen-unknown systems are the bulk of all transients the
// flow runs, so this checks that the order stays accurate on them.
func TestArcTestbenchesMatchDenseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of arc transients")
	}
	slews := DefaultSlews()
	for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
		lib := cells.NewLibrary(tech)
		loads := DefaultLoads(lib.ReferenceLoad())
		worst, arcs := 0.0, 0
		for _, name := range lib.Names() {
			c := lib.MustGet(name)
			for _, in := range c.Inputs() {
				for _, slew := range []float64{slews[0], slews[len(slews)-1]} {
					for _, load := range []float64{loads[0], loads[len(loads)-1]} {
						ckt, _, err := lib.ArcCircuit(c, in, load, slew)
						if err != nil {
							t.Fatal(err)
						}
						want, err := spicetest.Transient(ckt, cells.ArcPeriod, cells.ArcSteps)
						if err != nil {
							t.Fatalf("%s/%s oracle: %v", name, in, err)
						}
						got, err := ckt.Transient(context.Background(), nil, cells.ArcPeriod, cells.ArcSteps, spicetest.AllProbes(ckt))
						if err != nil {
							t.Fatalf("%s/%s kernel: %v", name, in, err)
						}
						d, err := spicetest.MaxWaveDiff(got, want)
						if err != nil {
							t.Fatal(err)
						}
						if d > 1e-9 {
							t.Errorf("%s %s/%s slew %g load %g: max |dV| = %.3e, want <= 1e-9",
								tech, name, in, slew, load, d)
						}
						if d > worst {
							worst = d
						}
						arcs++
					}
				}
			}
		}
		t.Logf("%s: %d arc corners, max |dV| = %.3e", tech, arcs, worst)
	}
}
