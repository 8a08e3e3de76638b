package immunity

import (
	"context"
	"math"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/rules"
)

func cnfetLib(t *testing.T) *cells.Library {
	t.Helper()
	l, err := cells.NewLibrary(rules.CNFET)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCellYieldImmuneLayout(t *testing.T) {
	lib := cnfetLib(t)
	v := device.Variations{CountCV: 0.2, AlignmentP: 0.1}
	cy, err := CellYieldCtx(context.Background(), lib, "NAND2_1X", v, 0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's layouts are immune: no critical-line tube breaks
	// logic, so BreakP is 0 and alignment contributes nothing.
	if cy.BreakP != 0 {
		t.Fatalf("immune cell BreakP = %g, want 0", cy.BreakP)
	}
	if cy.AlignYield != 1 {
		t.Fatalf("immune cell align yield = %g, want exactly 1", cy.AlignYield)
	}
	if cy.Devices == 0 || cy.Tubes < cy.Devices {
		t.Fatalf("device accounting %d devices / %d tubes", cy.Devices, cy.Tubes)
	}
	// Count yield composes per device.
	want := 1.0
	for _, tubes := range lib.DeviceTubes(lib.MustGet("NAND2_1X")) {
		want *= v.CountYield(tubes)
	}
	if math.Abs(cy.CountYield-want) > 1e-15 {
		t.Fatalf("count yield = %g, want per-device product %g", cy.CountYield, want)
	}
	if cy.Yield != cy.CountYield*cy.AlignYield {
		t.Fatalf("yield = %g, want factor product", cy.Yield)
	}
}

func TestCellYieldDeterministicMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo")
	}
	lib := cnfetLib(t)
	v := device.Variations{CountCV: 0.1, AlignmentP: 0.05}
	run := func(workers int) *CellYield {
		cy, err := CellYieldCtx(context.Background(), lib, "AOI21_1X", v, 200, 0, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		return cy
	}
	a, b := run(1), run(4)
	if *a != *b {
		t.Fatalf("Monte Carlo cell yield differs across worker counts:\n%+v\n%+v", a, b)
	}
	if a.Yield <= 0 || a.Yield > 1 {
		t.Fatalf("yield = %g outside (0, 1]", a.Yield)
	}
}

func TestCellYieldZeroVariations(t *testing.T) {
	lib := cnfetLib(t)
	cy, err := CellYieldCtx(context.Background(), lib, "INV_1X", device.Variations{}, 0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cy.Yield != 1 || cy.CountYield != 1 || cy.AlignYield != 1 {
		t.Fatalf("zero-variation yields %+v, want all exactly 1", cy)
	}
}

func TestCellYieldUnknownCell(t *testing.T) {
	lib := cnfetLib(t)
	if _, err := CellYieldCtx(context.Background(), lib, "NANDX_9X", device.Variations{}, 0, 0, 1, 1); err == nil {
		t.Fatal("unknown cell must fail")
	}
}
