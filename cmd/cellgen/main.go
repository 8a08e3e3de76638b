// Command cellgen is the per-cell CLI. It generates misaligned-CNT
// immune CNFET cell layouts, reproduces the paper's Table 1 area
// comparison against the etched-region baseline of ref [6], compares
// the vulnerable, etched and compact styles of one cell (the Fig 2
// experiment: critical-line certificate, Monte Carlo fail rate and
// functional yield), and optionally streams the cell to GDSII.
//
// Usage:
//
//	cellgen -table1                 # print the Table 1 reproduction
//	cellgen -cell NAND2             # Fig 2: the three styles of NAND2
//	cellgen -cell "AB+C" -tubes 20000 -angle 20
//	cellgen -cell NAND3 -size 4 -gds out.gds
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
	"cnfetdk/internal/drc"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/report"
	"cnfetdk/internal/rules"
)

// table1Cells lists the cells of Table 1 (plus the OAI duals).
var table1Cells = []struct{ Name, F string }{
	{"Inverter", "A"},
	{"NAND2", "AB"},
	{"NOR2", "A+B"},
	{"NAND3", "ABC"},
	{"NOR3", "A+B+C"},
	{"AOI22", "AB+CD"},
	{"OAI22", "(A+B)(C+D)"},
	{"AOI21", "AB+C"},
	{"OAI21", "(A+B)C"},
}

func main() {
	table1 := flag.Bool("table1", false, "print the Table 1 area comparison")
	cell := flag.String("cell", "", "describe one cell (name from Table 1 or a pull-down expression)")
	size := flag.Int("size", 4, "unit transistor width in lambda")
	gds := flag.String("gds", "", "write the cell (scheme 1 and 2) to this GDS file")
	var smp sampling
	flag.IntVar(&smp.tubes, "tubes", 10000, "Monte Carlo tube count per network")
	flag.Float64Var(&smp.angle, "angle", 15, "maximum misalignment angle (degrees)")
	flag.IntVar(&smp.trials, "trials", 200, "functional-yield population trials")
	flag.Int64Var(&smp.seed, "seed", 1, "random seed")
	flag.Parse()

	switch {
	case *table1:
		printTable1()
	case *cell != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := describeCell(ctx, os.Stdout, *cell, *size, *gds, smp); err != nil {
			fmt.Fprintln(os.Stderr, "cellgen:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func pullDownFor(name string) string {
	for _, c := range table1Cells {
		if c.Name == name {
			return c.F
		}
	}
	return name // treat as an expression
}

func printTable1() {
	rs := rules.Default65nm(rules.CNFET)
	sizes := []int{3, 4, 6, 10}
	tab := &report.Table{
		Title:   "Table 1 — area saving of the compact layout vs the etched-region layout [6]",
		Headers: []string{"Cell"},
	}
	for _, w := range sizes {
		tab.Headers = append(tab.Headers, fmt.Sprintf("%dλ", w))
	}
	for _, c := range table1Cells {
		g, err := network.NewGate(c.Name, logic.MustParse(c.F), 1)
		if err != nil {
			panic(err)
		}
		row := []string{c.Name}
		for _, w := range sizes {
			oldC, err := layout.Generate(c.Name, g, layout.StyleEtched, geom.Lambda(w), rs)
			if err != nil {
				panic(err)
			}
			newC, err := layout.Generate(c.Name, g, layout.StyleCompact, geom.Lambda(w), rs)
			if err != nil {
				panic(err)
			}
			row = append(row, report.Pct(1-newC.NetworksArea()/oldC.NetworksArea()))
		}
		tab.AddRow(row...)
	}
	tab.Format(os.Stdout)
	fmt.Println("\nPaper values (DATE'09, Table 1): NAND2 17.18/14.52/11.67/9.25," +
		" NAND3 19.64/16.67/13.45/10.71, AOI22 32.2/27.7/22.5/14.9, AOI21 44.3/40.6/36.4/32.5.")
}

// sampling sets the two sampled columns of the style comparison: the
// Monte Carlo fail rate over tubes per network at up to angle degrees,
// and the functional yield over trials population draws.
type sampling struct {
	tubes, trials int
	angle         float64
	seed          int64
}

// describeCell writes one table row per layout style (vulnerable,
// etched, compact) of a cell: its networks area, PUN contacts and gates,
// vias on gates, DRC violations, critical-line verdict, Monte Carlo fail
// rate and functional yield. With gdsPath it also streams the compact
// layout in both schemes. Bad input is an error before any output.
func describeCell(ctx context.Context, w io.Writer, name string, size int, gdsPath string, smp sampling) error {
	if size <= 0 {
		return fmt.Errorf("-size %d: the unit transistor width must be positive", size)
	}
	if smp.tubes <= 0 {
		return fmt.Errorf("-tubes %d: need at least one Monte Carlo tube", smp.tubes)
	}
	if smp.trials <= 0 {
		return fmt.Errorf("-trials %d: need at least one functional-yield trial", smp.trials)
	}
	f, err := logic.Parse(pullDownFor(name))
	if err != nil {
		return fmt.Errorf("-cell %q: %w", name, err)
	}
	g, err := network.NewGate(name, f, 1)
	if err != nil {
		return err
	}
	rs := rules.Default65nm(rules.CNFET)
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.25
	params.MaxAngleDeg = smp.angle
	params.PitchNM = 20

	tab := &report.Table{
		Title: fmt.Sprintf("cell %s: out = (%s)' at %dλ, areas in λ² (%d tubes, ±%.0f°, %d yield trials)",
			name, g.PullDown, size, smp.tubes, smp.angle, smp.trials),
		Headers: []string{"style", "area", "PUN contacts", "PUN gates", "vias-on-gate", "DRC",
			"critical-lines", "MC fail rate", "functional yield"},
	}
	var compact *layout.Cell
	for _, style := range []layout.Style{layout.StyleVulnerable, layout.StyleEtched, layout.StyleCompact} {
		c, err := layout.Generate(name, g, style, geom.Lambda(size), rs)
		if err != nil {
			return err
		}
		punRep, pdnRep := immunity.VerifyImmunity(c)
		verdict := "IMMUNE"
		if !punRep.Immune() || !pdnRep.Immune() {
			verdict = fmt.Sprintf("%d violations", punRep.BadTubes+pdnRep.BadTubes)
		}
		cc := immunity.NewCellChecker(c)
		rng := rand.New(rand.NewSource(smp.seed))
		mcu, err := cc.PUN().MonteCarloCtx(ctx, smp.tubes, smp.angle, rng, 0)
		if err != nil {
			return err
		}
		mcd, err := cc.PDN().MonteCarloCtx(ctx, smp.tubes, smp.angle, rng, 0)
		if err != nil {
			return err
		}
		failRate := (mcu.FailureRate() + mcd.FailureRate()) / 2
		yield := cc.FunctionalYield(smp.trials, params, rand.New(rand.NewSource(smp.seed+1)))
		tab.AddRow(style.String(), fmt.Sprintf("%.1f", c.NetworksArea()),
			fmt.Sprint(len(c.PUN.Contacts())), fmt.Sprint(len(c.PUN.Gates())),
			fmt.Sprint(c.ViasOnGate()), fmt.Sprint(len(drc.CheckCell(c))),
			verdict, report.Pct(failRate), report.Pct(yield))
		if style == layout.StyleCompact {
			compact = c
		}
	}
	tab.Format(w)
	fmt.Fprintln(w, "vulnerable: Fig 2b; etched: ref [6]; compact: this paper")
	if gdsPath == "" {
		return nil
	}
	lib := gdsii.NewLibrary("CNFETDK")
	for _, scheme := range []layout.Scheme{layout.Scheme1, layout.Scheme2} {
		flow.ExportCell(lib, compact, name, rs.LambdaNM, scheme)
	}
	out, err := os.Create(gdsPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := lib.Write(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", gdsPath)
	return nil
}
