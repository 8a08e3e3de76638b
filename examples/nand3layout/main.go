// Example nand3layout walks through the paper's Section III story on the
// NAND3 cell (Fig 3): the Euler-trail construction of the compact layout,
// the etched-region baseline it replaces, the 16.67% area delta, the
// vertical-gating cost, and the immunity verdicts for all three styles —
// including the functional-yield experiment of Fig 2 under a mispositioned
// tube population.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"cnfetdk/internal/cnt"
	"cnfetdk/internal/euler"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

func main() {
	gate, err := network.NewGate("NAND3", logic.MustParse("ABC"), 1)
	if err != nil {
		log.Fatal(err)
	}

	// The Euler trail that generates Fig 3(b): contacts are nodes, gates
	// are edges; the PUN multigraph has three parallel A/B/C edges
	// between VDD and OUT, so the trail alternates VDD-OUT and inserts
	// redundant contacts instead of etched regions.
	g := euler.FromNetwork(gate.PUN)
	trail := g.Trails("VDD")[0]
	fmt.Print("PUN Euler trail: ")
	for i, n := range trail.Nodes {
		if i > 0 {
			fmt.Printf(" -%s- ", g.Edges[trail.Edges[i-1]].Label)
		}
		fmt.Print(n)
	}
	fmt.Println()

	rs := rules.Default65nm(rules.CNFET)
	build := func(style layout.Style) *layout.Cell {
		c, err := layout.Generate("NAND3", gate, style, geom.Lambda(4), rs)
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	compact := build(layout.StyleCompact)
	etched := build(layout.StyleEtched)
	vulnerable := build(layout.StyleVulnerable)

	fmt.Printf("\nFig 3 comparison at 4λ devices:\n")
	fmt.Printf("  etched [6]: %5.0f λ², %d etch regions, %d vias-on-gate\n",
		etched.NetworksArea(), len(etched.PUN.Etches()), etched.ViasOnGate())
	fmt.Printf("  compact:    %5.0f λ², %d etch regions, %d vias-on-gate\n",
		compact.NetworksArea(), len(compact.PUN.Etches()), compact.ViasOnGate())
	fmt.Printf("  area saving %.2f%% (paper: 16.67%%)\n",
		100*(1-compact.NetworksArea()/etched.NetworksArea()))

	fmt.Printf("\nImmunity certificates (critical-line enumeration):\n")
	for _, c := range []*layout.Cell{vulnerable, etched, compact} {
		pun, pdn, err := immunity.VerifyImmunity(context.Background(), c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s PUN immune=%v PDN immune=%v\n",
			c.Style.String(), pun.Immune(), pdn.Immune())
		if !pun.Immune() {
			fmt.Printf("    e.g. %v\n", pun.Violations[0])
		}
	}

	// Fig 2 experiment: functional yield under 25% mispositioned tubes.
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.25
	params.MaxAngleDeg = 20
	params.PitchNM = 20
	fmt.Printf("\nFunctional yield under 25%% mispositioned tubes (±20°):\n")
	for _, c := range []*layout.Cell{vulnerable, compact} {
		cc := immunity.NewCellChecker(c)
		y := cc.FunctionalYield(100, params, rand.New(rand.NewSource(1)))
		fmt.Printf("  %-11s %.0f%%\n", c.Style.String(), 100*y)
	}
}
