// Command cnfetopt runs the processing/circuit co-optimization: given a
// registry circuit and a functional-yield target, it searches the joint
// space of CNT processing knobs (inter-tube pitch, growth quality,
// alignment) and circuit knobs (drive sizing) and prints the Pareto
// front of processing cost versus circuit cost.
//
// Usage:
//
//	cnfetopt -circuit mux2 -yield 0.99
//	cnfetopt -circuit dec2 -yield 0.999 -pitches 5,8,13 -cvs 0.1,0.2 \
//	         -aligns 0.01,0.1 -drives 1,2 -csv front.csv
//	cnfetopt -spec coopt.json -o front.json
//	cnfetopt -circuit mux2 -coordinator http://fab:8066   # measured sweep on the fabric
//
// The measured layer (the variation sweep) runs locally by default, on a
// kit of -j workers and within sweep.DefaultMaxPoints measured points;
// with -coordinator it runs on a sweep-fabric worker fleet instead (each
// worker on its own cnfetd -j, within the coordinator's quota),
// producing the byte-identical front. With -store, the measured stages
// persist so repeated searches warm-start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cnfetdk/internal/coopt"
	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

func main() {
	specPath := flag.String("spec", "", "coopt.Spec JSON file (\"-\" for stdin); overrides the knob flags")
	circuit := flag.String("circuit", "", "registry circuit to co-optimize")
	placement := flag.String("placement", "", "CNFET placement scheme (rows, shelves)")
	yield := flag.Float64("yield", 0, "functional-yield target (0 = default 0.99)")
	pitches := flag.String("pitches", "", "comma-separated pitch grid in nm")
	cvs := flag.String("cvs", "", "comma-separated CNT count-CV grid")
	aligns := flag.String("aligns", "", "comma-separated alignment-probability grid")
	drives := flag.String("drives", "", "comma-separated drive-multiplier grid")
	diaSigma := flag.Float64("dia-sigma", 0, "per-tube diameter spread in nm (fixed, not searched)")
	mcTubes := flag.Int("tubes", 0, "immunity Monte Carlo tubes per network (0 = certificates only)")
	samples := flag.Int("samples", 0, "delay-ensemble size per measured point (0 = flow default)")
	seed := flag.Int64("seed", 0, "ensemble / Monte Carlo seed")
	workers := flag.Int("j", 0, "local kit worker bound: concurrent measured points and stage workers (0 = one per CPU)")
	coordinator := flag.String("coordinator", "", "sweep-fabric coordinator URL; the measured sweep runs on its worker fleet")
	storeDir := flag.String("store", "", "persistent artifact-store directory for the measured stages")
	outPath := flag.String("o", "", "write the front's canonical JSON here (\"-\" for stdout)")
	csvPath := flag.String("csv", "", "write the front as CSV (\"-\" for stdout)")
	quiet := flag.Bool("q", false, "suppress the progress and summary output")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec, err := assembleSpec(*specPath, *circuit, *placement, *yield,
		*pitches, *cvs, *aligns, *drives, *diaSigma, *mcTubes, *samples, *seed)
	if err != nil {
		fatal(err)
	}

	var runner coopt.Runner
	if *coordinator != "" {
		client := &fabric.Client{URL: *coordinator}
		if !*quiet {
			client.OnLine = func(line fabric.StreamLine) {
				if line.Point != nil {
					fmt.Fprintf(os.Stderr, "cnfetopt: measured %s (%s)\n", line.Point.ID, line.Worker)
				}
			}
		}
		runner = client
	} else {
		if err := spec.Admit(sweep.DefaultMaxPoints); err != nil {
			fatal(err)
		}
		kitOpts := []flow.Option{flow.WithWorkers(*workers)}
		if *storeDir != "" {
			kitOpts = append(kitOpts, flow.WithStore(*storeDir))
		}
		kit, err := flow.New(ctx, kitOpts...)
		if err != nil {
			fatal(err)
		}
		runner = coopt.KitRunner{Kit: kit}
	}

	front, err := coopt.Search(ctx, runner, *spec)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "cnfetopt: %s: %d candidates evaluated, %d feasible at yield >= %g, front of %d\n",
			front.Spec.Circuit, front.Evaluated, front.Feasible, front.Spec.YieldTarget, len(front.Candidates))
	}
	if *outPath != "" {
		if err := writeFront(*outPath, front); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, front); err != nil {
			fatal(err)
		}
	}
	if *outPath == "" && *csvPath == "" {
		if err := writeCSV("-", front); err != nil {
			fatal(err)
		}
	}
}

// assembleSpec builds the spec from a file or the knob flags.
func assembleSpec(specPath, circuit, placement string, yield float64,
	pitches, cvs, aligns, drives string, diaSigma float64,
	mcTubes, samples int, seed int64) (*coopt.Spec, error) {
	var spec coopt.Spec
	if specPath != "" {
		var r io.Reader
		if specPath == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(specPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", specPath, err)
		}
	} else {
		spec.Circuit = circuit
		spec.Placement = placement
		spec.YieldTarget = yield
		var err error
		if spec.PitchesNM, err = parseFloats(pitches); err != nil {
			return nil, fmt.Errorf("-pitches: %w", err)
		}
		if spec.CountCVs, err = parseFloats(cvs); err != nil {
			return nil, fmt.Errorf("-cvs: %w", err)
		}
		if spec.AlignmentPs, err = parseFloats(aligns); err != nil {
			return nil, fmt.Errorf("-aligns: %w", err)
		}
		if spec.Drives, err = parseFloats(drives); err != nil {
			return nil, fmt.Errorf("-drives: %w", err)
		}
		spec.DiameterSigmaNM = diaSigma
		spec.MCTubes = mcTubes
		spec.VarSamples = samples
		spec.Seed = seed
	}
	return &spec, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func writeFront(path string, front *coopt.Front) error {
	blob, err := front.CanonicalJSON()
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func writeCSV(path string, front *coopt.Front) error {
	if path == "-" {
		return front.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := front.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cnfetopt:", err)
	os.Exit(1)
}
