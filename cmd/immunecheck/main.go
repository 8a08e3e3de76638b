// Command immunecheck verifies the misaligned-CNT immunity of CNFET cell
// layouts (the Fig 2 experiment): a deterministic critical-line
// certificate plus Monte Carlo sampling, and a functional-yield comparison
// of the vulnerable, etched [6], and compact (this paper) styles. With
// -circuit it instead certifies every distinct cell of a registry circuit
// through the design-service API.
//
// Usage:
//
//	immunecheck                     # run the Fig 2 comparison on NAND2
//	immunecheck -cell "AB+C"        # any pull-down expression
//	immunecheck -tubes 20000 -angle 20
//	immunecheck -circuit rca4       # whole-design certificate via Kit.Run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"cnfetdk/internal/cnt"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/report"
	"cnfetdk/internal/rules"
)

func main() {
	cell := flag.String("cell", "AB", "pull-down function of the cell under test")
	circuit := flag.String("circuit", "", "certify a registry circuit via the design service")
	tubes := flag.Int("tubes", 10000, "Monte Carlo tube count per network")
	angle := flag.Float64("angle", 15, "maximum misalignment angle (degrees)")
	trials := flag.Int("trials", 200, "functional-yield population trials")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *circuit != "" {
		// -trials (functional-yield populations) only applies to the
		// per-cell style comparison, not the design-service certificate.
		if err := checkCircuit(*circuit, *tubes, *angle, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "immunecheck:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := compareStyles(ctx, os.Stdout, *cell, *tubes, *trials, *angle, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "immunecheck:", err)
		os.Exit(1)
	}
}

// compareStyles writes the Fig 2 comparison for one pull-down
// expression: the critical-line verdict, the Monte Carlo fail rate over
// tubes samples per network and the functional yield over trials
// population draws, for the vulnerable, etched and compact styles.
func compareStyles(ctx context.Context, w io.Writer, cell string, tubes, trials int, angle float64, seed int64) error {
	if tubes <= 0 {
		return fmt.Errorf("-tubes %d: need at least one Monte Carlo tube", tubes)
	}
	if trials <= 0 {
		return fmt.Errorf("-trials %d: need at least one functional-yield trial", trials)
	}
	f, err := logic.Parse(cell)
	if err != nil {
		return fmt.Errorf("-cell %q: %w", cell, err)
	}
	g, err := network.NewGate(cell, f, 1)
	if err != nil {
		return err
	}
	rs := rules.Default65nm(rules.CNFET)

	tab := &report.Table{
		Title: fmt.Sprintf("Misaligned-CNT immunity of %q layouts (%d tubes, ±%.0f°)",
			cell, tubes, angle),
		Headers: []string{"style", "critical-lines", "MC fail rate", "functional yield"},
	}
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.25
	params.MaxAngleDeg = angle
	params.PitchNM = 20

	for _, style := range []layout.Style{layout.StyleVulnerable, layout.StyleEtched, layout.StyleCompact} {
		c, err := layout.Generate(cell, g, style, geom.Lambda(4), rs)
		if err != nil {
			return err
		}
		punRep, pdnRep := immunity.VerifyImmunity(c)
		verdict := "IMMUNE"
		if !punRep.Immune() || !pdnRep.Immune() {
			verdict = fmt.Sprintf("%d violations", punRep.BadTubes+pdnRep.BadTubes)
		}
		cc := immunity.NewCellChecker(c)
		rng := rand.New(rand.NewSource(seed))
		mc, err := cc.PUN().MonteCarloCtx(ctx, tubes, angle, rng, 0)
		if err != nil {
			return err
		}
		mcd, err := cc.PDN().MonteCarloCtx(ctx, tubes, angle, rng, 0)
		if err != nil {
			return err
		}
		failRate := (mc.FailureRate() + mcd.FailureRate()) / 2
		yield := cc.FunctionalYield(trials, params, rand.New(rand.NewSource(seed+1)))
		tab.AddRow(style.String(), verdict, report.Pct(failRate), report.Pct(yield))
	}
	tab.Format(w)
	fmt.Fprintln(w, "\nThe compact layout (this paper) and the etched layout [6] certify as")
	fmt.Fprintln(w, "100% immune; the vulnerable layout (Fig 2b) shorts VDD to OUT under")
	fmt.Fprintln(w, "skewed tubes and loses functional yield.")
	return nil
}

// checkCircuit certifies every distinct cell of a registry circuit
// through the design-service API.
func checkCircuit(name string, mcTubes int, angle float64, seed int64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	kit, err := flow.New(ctx)
	if err != nil {
		return err
	}
	res, err := kit.Run(ctx, flow.Request{
		Circuit:    name,
		Techs:      []string{"cnfet"},
		Analyses:   []flow.Analysis{flow.AnalysisImmunity},
		MCTubes:    mcTubes,
		MCAngleDeg: angle,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	imm := res.Techs["cnfet"].Immunity
	fmt.Printf("%s: %d distinct cells, %d critical lines checked\n",
		res.Circuit, imm.CellsChecked, imm.CriticalLines)
	if imm.MCTubes > 0 {
		fmt.Printf("Monte Carlo: %d tubes (±%.0f°), fail rate %s\n",
			imm.MCTubes, angle, report.Pct(imm.MCFailRate))
	}
	if !imm.Immune {
		return fmt.Errorf("%d violations in cells %v", imm.Violations, imm.VulnerableCells)
	}
	fmt.Println("verdict: IMMUNE")
	return nil
}
