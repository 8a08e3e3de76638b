// Example paramsweep explores a slice of the paper's design space in one
// batch: every registry circuit under both placement schemes, with the
// imperfection statistics sampled at three Monte Carlo depths — the kind
// of processing-vs-circuit co-exploration sweep the batch engine exists
// for. All points share one kit, so each circuit's netlist synthesizes
// once and each (circuit, placement) pair places once no matter how many
// Monte Carlo points ride on it.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

func main() {
	ctx := context.Background()
	kit, err := flow.New(ctx)
	if err != nil {
		log.Fatal(err)
	}

	var circuits []string
	for _, c := range flow.Circuits() {
		circuits = append(circuits, c.Name)
	}

	rep, err := sweep.Run(ctx, kit, sweep.Spec{
		Name: "placement-vs-immunity",
		Base: flow.Request{
			Techs:    []string{"cnfet"},
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
		},
		Axes: sweep.Axes{
			Circuits:   circuits,
			Placements: []string{"rows", "shelves"},
			MCTubes:    []int{50, 100, 200},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d points (%d failed) in %.0fms — %d/%d stages served from the shared cache\n\n",
		len(rep.Points), rep.Failed, rep.Trace.WallMillis,
		rep.Trace.CacheHitStages, rep.Trace.TotalStages)

	fmt.Println("scheme-2 area advantage per circuit (rows / shelves):")
	area := map[string]map[string]float64{} // circuit -> placement -> area
	for _, pr := range rep.Points {
		if pr.Result == nil {
			continue
		}
		c := pr.Params["circuit"].(string)
		p := pr.Params["placement"].(string)
		if area[c] == nil {
			area[c] = map[string]float64{}
		}
		area[c][p] = pr.Result.Techs["cnfet"].AreaLam2
	}
	names := make([]string, 0, len(area))
	for c := range area {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		a := area[c]
		fmt.Printf("  %-10s rows %7.0f λ²   shelves %7.0f λ²   gain %.2fx\n",
			c, a["rows"], a["shelves"], a["rows"]/a["shelves"])
	}

	fmt.Println("\nimmunity yield vs Monte Carlo depth (all circuits, both schemes):")
	for _, y := range rep.YieldVsTubes {
		fmt.Printf("  %3d tubes/network: yield %.4f over %d points\n", y.MCTubes, y.Yield, y.Points)
	}

	fmt.Println("\nsummary statistics:")
	keys := make([]string, 0, len(rep.Summary))
	for k := range rep.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := rep.Summary[k]
		fmt.Printf("  %-20s n=%-3d min %-10.4g mean %-10.4g max %-10.4g\n", k, s.Count, s.Min, s.Mean, s.Max)
	}
}
