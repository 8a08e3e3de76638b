package flow

import (
	"bytes"
	"math/rand"
	"testing"

	"cnfetdk/internal/cnt"
	"cnfetdk/internal/drc"
	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/place"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/synth"
)

// TestEndToEndPipeline exercises the complete design kit in one pass, the
// way a user would: Boolean spec -> technology mapping -> per-cell
// immunity + DRC + aligned-population function -> placement -> GDSII
// round trip -> transistor-level functional check. Any regression in any
// stage fails here even if the stage's own unit tests are too narrow.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	k := kit(t)

	// 1. Synthesize a 2:1 mux from its equation and verify the mapping.
	spec := map[string]*logic.Expr{"Y": logic.MustParse("D0*!S + D1*S")}
	nl, err := synth.Synthesize("mux2", spec)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Every distinct cell: immune, DRC-clean, and functional under an
	// aligned tube population (the layout realizes its networks).
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0
	seen := map[string]bool{}
	for _, inst := range nl.Instances {
		if seen[inst.Cell] {
			continue
		}
		seen[inst.Cell] = true
		c, err := k.CNFET.Get(inst.Cell)
		if err != nil {
			t.Fatal(err)
		}
		pun, pdn := immunity.VerifyImmunity(c.Layout)
		if !pun.Immune() || !pdn.Immune() {
			t.Fatalf("%s not immune", inst.Cell)
		}
		if vs := drc.CheckCell(c.Layout); len(vs) != 0 {
			t.Fatalf("%s DRC: %v", inst.Cell, vs[0])
		}
		rng := rand.New(rand.NewSource(1))
		cc := immunity.NewCellChecker(c.Layout)
		rep := cc.Functional(cnt.Generate(c.Layout.PUN.BBox, params, rng), cnt.Generate(c.Layout.PDN.BBox, params, rng))
		if !rep.Functional {
			t.Fatalf("%s not functional: %v", inst.Cell, rep.Failures)
		}
	}

	// 3. Place.
	p, err := place.Shelves(k.CNFET, nl, 0)
	if err != nil {
		t.Fatal(err)
	}

	// 4. GDSII round trip preserves instance count.
	var buf bytes.Buffer
	if err := WritePlacementGDS(&buf, k.CNFET, p, "MUX2"); err != nil {
		t.Fatal(err)
	}
	lib, err := gdsii.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if top := lib.Find("MUX2"); top == nil || len(top.SRefs) != len(nl.Instances) {
		t.Fatal("GDS round trip lost instances")
	}

	// 5. Transistor-level truth table of the mapped design.
	wire := WireCapsWith(p, nl, k.CNFET.Rules.LambdaNM, WireCapPerNM)
	for v := 0; v < 8; v++ {
		in := map[string]bool{
			"D0": v&1 == 1, "D1": v&2 == 2, "S": v&4 == 4,
		}
		want := spec["Y"].Eval(in)
		got, err := k.evalAtSpiceLevel(nl, wire, in, "Y")
		if err != nil {
			t.Fatalf("vector %b: %v", v, err)
		}
		if got != want {
			t.Fatalf("vector %b: spice says %v, spec says %v", v, got, want)
		}
	}
}

// evalAtSpiceLevel computes one output of a netlist for one input vector
// by DC operating point.
func (k *Kit) evalAtSpiceLevel(nl *synth.Netlist, wire map[string]float64, in map[string]bool, out string) (bool, error) {
	ckt, _, err := k.BuildCircuit(k.CNFET, nl, wire)
	if err != nil {
		return false, err
	}
	for name, val := range in {
		level := 0.0
		if val {
			level = 1.0
		}
		ckt.AddV("v"+name, name, "0", spice.DC(level))
	}
	x, err := ckt.OP(spice.DefaultOptions())
	if err != nil {
		return false, err
	}
	return x[ckt.Node(out)-1] > 0.5, nil
}
