// Command cellgen generates misaligned-CNT-immune CNFET cell layouts,
// reproduces the paper's Table 1 area comparison against the etched-region
// baseline of ref [6], and optionally streams cells to GDSII. With
// -circuit it reports the per-technology placed area of a registry
// circuit through the design-service API.
//
// Usage:
//
//	cellgen -table1                 # print the Table 1 reproduction
//	cellgen -cell NAND3 -size 4     # describe one cell's layouts
//	cellgen -cell NAND3 -gds out.gds
//	cellgen -circuit parity4        # placed-area report via Kit.Run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

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
	circuit := flag.String("circuit", "", "report the placed area of a registry circuit")
	size := flag.Int("size", 4, "unit transistor width in lambda")
	gds := flag.String("gds", "", "write the cell (scheme 1 and 2) to this GDS file")
	flag.Parse()

	switch {
	case *table1:
		printTable1()
	case *circuit != "":
		if *gds != "" {
			fmt.Fprintln(os.Stderr, "cellgen: -gds is ignored with -circuit (use cnfetdk -circuit ... -gds)")
		}
		if err := describeCircuit(*circuit); err != nil {
			fmt.Fprintln(os.Stderr, "cellgen:", err)
			os.Exit(1)
		}
	case *cell != "":
		if err := describeCell(*cell, *size, *gds); err != nil {
			fmt.Fprintln(os.Stderr, "cellgen:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// describeCircuit runs the area analysis of one registry circuit in both
// technologies and schemes through the design-service API.
func describeCircuit(name string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	kit, err := flow.New(ctx)
	if err != nil {
		return err
	}
	s2, err := kit.Run(ctx, flow.Request{Circuit: name})
	if err != nil {
		return err
	}
	s1, err := kit.Run(ctx, flow.Request{Circuit: name, Techs: []string{"cnfet"}, Placement: "rows"})
	if err != nil {
		return err
	}
	cm, cn, cn1 := s2.Techs["cmos"], s2.Techs["cnfet"], s1.Techs["cnfet"]
	tab := &report.Table{
		Title:   fmt.Sprintf("%s — %d instances, %d nets", s2.Circuit, s2.Instances, s2.Nets),
		Headers: []string{"placement", "area", "utilization", "gain vs CMOS"},
	}
	tab.AddRow("CMOS rows", fmt.Sprintf("%.0fλ²", cm.AreaLam2),
		fmt.Sprintf("%.2f", cm.Utilization), "")
	tab.AddRow("CNFET scheme 1", fmt.Sprintf("%.0fλ²", cn1.AreaLam2),
		fmt.Sprintf("%.2f", cn1.Utilization), report.Gain(cm.AreaLam2/cn1.AreaLam2))
	tab.AddRow("CNFET scheme 2", fmt.Sprintf("%.0fλ²", cn.AreaLam2),
		fmt.Sprintf("%.2f", cn.Utilization), report.Gain(cm.AreaLam2/cn.AreaLam2))
	tab.Format(os.Stdout)
	return nil
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

func describeCell(name string, size int, gdsPath string) error {
	f := pullDownFor(name)
	g, err := network.NewGate(name, logic.MustParse(f), 1)
	if err != nil {
		return err
	}
	rs := rules.Default65nm(rules.CNFET)
	fmt.Printf("cell %s: out = (%s)'\n", name, g.PullDown)
	for _, style := range []layout.Style{layout.StyleCompact, layout.StyleEtched, layout.StyleVulnerable} {
		c, err := layout.Generate(name, g, style, geom.Lambda(size), rs)
		if err != nil {
			return err
		}
		punRep, pdnRep := immunity.VerifyImmunity(c)
		verdict := "IMMUNE"
		if !punRep.Immune() || !pdnRep.Immune() {
			verdict = fmt.Sprintf("VULNERABLE (%d bad critical lines)",
				punRep.BadTubes+pdnRep.BadTubes)
		}
		drcViol := len(drc.CheckCell(c))
		fmt.Printf("  %-11s area %7.1f λ²  PUN %2d contacts %d gates  vias-on-gate %d  DRC %d  %s\n",
			style.String(), c.NetworksArea(),
			len(c.PUN.Contacts()), len(c.PUN.Gates()), c.ViasOnGate(), drcViol, verdict)
	}
	if gdsPath != "" {
		c, err := layout.Generate(name, g, layout.StyleCompact, geom.Lambda(size), rs)
		if err != nil {
			return err
		}
		lib := gdsii.NewLibrary("CNFETDK")
		for _, scheme := range []layout.Scheme{layout.Scheme1, layout.Scheme2} {
			flow.ExportCell(lib, c, name, rs.LambdaNM, scheme)
		}
		out, err := os.Create(gdsPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := lib.Write(out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", gdsPath)
	}
	return nil
}
