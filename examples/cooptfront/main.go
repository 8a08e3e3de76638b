// Example cooptfront runs the processing/circuit co-optimization end to
// end on one registry circuit and prints the resulting Pareto front as
// CSV: each row is a feasible, non-dominated combination of processing
// knobs (inter-tube pitch, CNT count CV, alignment probability) and
// circuit knobs (drive sizing) that meets the functional-yield target,
// trading processing cost against area/energy cost.
//
// The measured layer — a variation sweep with transistor-level delay
// ensembles and composed yields — runs on a local kit here; handing
// coopt.Search a *fabric.Client instead runs it on a worker fleet and
// produces the byte-identical front.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cnfetdk/internal/coopt"
	"cnfetdk/internal/flow"
)

func main() {
	ctx := context.Background()
	kit, err := flow.New(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Small grids keep the example fast: 2 measured points (cv × align),
	// each rescaled analytically over 3 pitches × 2 drives.
	front, err := coopt.Search(ctx, coopt.KitRunner{Kit: kit}, coopt.Spec{
		Circuit:     "mux2",
		YieldTarget: 0.99,
		CountCVs:    []float64{0.1, 0.3},
		AlignmentPs: []float64{0.05},
		PitchesNM:   []float64{5, 8, 13},
		Drives:      []float64{1, 2},
		VarSamples:  4,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("# %s: %d evaluated, %d feasible, front of %d\n",
		front.Spec.Circuit, front.Evaluated, front.Feasible, len(front.Candidates))
	if err := front.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
