// Command cnfetsweep runs batched parameter-space explorations over the
// design kit: a sweep.Spec — from a JSON file or assembled from flags —
// expands into concrete design jobs that share one kit's memo cache, and
// the aggregated report (per-point metrics, summaries, yield-vs-tubes
// curves, Pareto fronts) lands as JSON and/or CSV.
//
// Usage:
//
//	cnfetsweep -spec sweep.json -o report.json
//	cnfetsweep -circuits mux2,dec2 -placements rows,shelves \
//	           -tubes 16,32,48 -seeds 1,2 -analyses area,immunity \
//	           -techs cnfet -csv points.csv
//	cnfetsweep -spec - < sweep.json        # spec from stdin
//	cnfetsweep -spec sweep.json -store .cnfet-store  # resumable sweep
//	cnfetsweep -spec sweep.json -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Axis flags are comma-separated; -techs sweeps technology *sets*
// separated by "/" ("cnfet/cnfet,cmos" is a two-element axis). -zip
// pairs the axes element-wise instead of crossing them. The sweep runs
// through the shared singleflight cache, so points with common prefix
// stages (same circuit + placement, different Monte Carlo parameters)
// compute the shared work once.
//
// -j sizes the local kit only: a local run takes -j points (and -j stage
// workers per point) at a time, within sweep.DefaultMaxPoints points. A
// fabric run's points run on each worker's own cnfetd -j, within the
// coordinator's quota.
//
// With -store, every stage result is also written through to a
// persistent artifact store: a killed sweep rerun in a new process
// resumes from its completed points instead of restarting, and separate
// sweeps (or a cnfetd daemon) sharing the directory reuse each other's
// work.
//
// With -workers, the sweep does not run locally at all: the spec is
// POSTed to a sweep-fabric coordinator (cnfetd -coordinator) at that
// URL, which shards it across its registered worker fleet and streams
// per-point progress back. The merged report
// is canonical-byte-identical to a local run of the same spec:
//
//	cnfetsweep -workers http://coordinator:8066 -spec sweep.json -canonical -o report.json
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/prof"
	"cnfetdk/internal/sweep"
)

func main() {
	specPath := flag.String("spec", "", "sweep.Spec JSON file (\"-\" for stdin), run as written: overrides the axis, -name and -zip flags")
	name := flag.String("name", "", "sweep name for the report")
	circuits := flag.String("circuits", "", "comma-separated registry circuits axis")
	techs := flag.String("techs", "", "technology-set axis, sets separated by \"/\" (e.g. cnfet/cnfet,cmos)")
	placements := flag.String("placements", "", "comma-separated placement axis (rows,shelves)")
	wirecaps := flag.String("wirecaps", "", "comma-separated wire-cap axis (F per nm)")
	tubes := flag.String("tubes", "", "comma-separated Monte Carlo tube-count axis")
	angles := flag.String("angles", "", "comma-separated misalignment-angle axis (degrees)")
	seeds := flag.String("seeds", "", "comma-separated seed axis")
	analyses := flag.String("analyses", "area", "comma-separated analyses for every point")
	zip := flag.Bool("zip", false, "pair the axes element-wise instead of crossing them")
	workers := flag.Int("j", 0, "local kit worker bound: concurrent points and stage workers (0 = one per CPU); a fabric run uses each worker's own -j")
	fabricURL := flag.String("workers", "", "sweep-fabric coordinator URL; the sweep runs on its worker fleet instead of locally")
	storeDir := flag.String("store", "", "persistent artifact-store directory; a rerun resumes from the stages completed there")
	storeBudget := flag.Int64("store-budget", 0, "artifact-store size budget in bytes (0 = unbounded)")
	outPath := flag.String("o", "", "write the report JSON here (\"-\" for stdout)")
	csvPath := flag.String("csv", "", "write the per-point table as CSV")
	canonical := flag.Bool("canonical", false, "emit the canonical (trace-free, deterministic) report JSON")
	quiet := flag.Bool("q", false, "suppress the progress and summary output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocs profile to this file on exit")
	faultsPath := flag.String("faults", "", "fault-injection plan JSON file for local runs (chaos-testing aid; see internal/fault)")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProf = stop // flushed by fatal() too: error exits keep their profiles
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec, err := assembleSpec(specFlags{
		specPath: *specPath, name: *name, circuits: *circuits, techs: *techs,
		placements: *placements, wirecaps: *wirecaps, tubes: *tubes,
		angles: *angles, seeds: *seeds, analyses: *analyses, zip: *zip,
	})
	if err != nil {
		fatal(err)
	}
	// A local run is admitted here; the coordinator admits a fabric run,
	// whose count only labels progress.
	n, err := spec.NumPoints()
	if *fabricURL == "" {
		n, err = spec.Admit(sweep.DefaultMaxPoints)
	}
	if err != nil {
		fatal(err)
	}
	if *fabricURL != "" {
		rep, err := runOnFabric(ctx, *fabricURL, spec, n, *quiet)
		if err != nil {
			fatal(err)
		}
		finish(rep, *outPath, *csvPath, *canonical)
		return
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "cnfetsweep: %d points, building kit...\n", n)
	}

	kitOpts := []flow.Option{flow.WithWorkers(*workers)}
	if *storeDir != "" {
		kitOpts = append(kitOpts, flow.WithStore(*storeDir), flow.WithStoreBudget(*storeBudget))
	}
	if *faultsPath != "" {
		blob, err := os.ReadFile(*faultsPath)
		if err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		plan, err := fault.ParsePlan(blob)
		if err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		inj, err := fault.New(plan)
		if err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		kitOpts = append(kitOpts, flow.WithFaults(inj))
	}
	kit, err := flow.New(ctx, kitOpts...)
	if err != nil {
		fatal(err)
	}

	var opts []sweep.Option
	if !*quiet {
		done := 0
		opts = append(opts, sweep.OnPoint(func(pr sweep.PointResult) {
			done++
			status := fmt.Sprintf("cached %d/%d", pr.CachedStages, pr.TotalStages)
			if pr.Error != "" {
				status = "ERROR: " + pr.Error
			}
			fmt.Fprintf(os.Stderr, "cnfetsweep: [%d/%d] %s (%.1fms, %s)\n", done, n, pr.ID, pr.Millis, status)
		}))
	}
	rep, err := sweep.Run(ctx, kit, *spec, opts...)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		printSummary(os.Stderr, rep)
		if st := kit.CacheStats(); st.Disk != nil {
			fmt.Fprintf(os.Stderr, "cnfetsweep: store %s: %d disk hits, %d writes, %d entries (%d bytes)\n",
				*storeDir, st.Disk.Hits, st.Disk.Puts, st.Disk.Entries, st.Disk.Bytes)
		}
	}
	finish(rep, *outPath, *csvPath, *canonical)
}

// stopProf finishes any active profiles; every os.Exit path must call it
// (defers do not run), so fatal() routes through it.
var stopProf = func() {}

// finish renders a completed sweep, local or fabric, per the output
// flags — the report JSON to -o, the point table to -csv, the JSON on
// stdout when neither is set — and exits with status 2 when points
// failed.
func finish(rep *sweep.Report, outPath, csvPath string, canonical bool) {
	if outPath != "" {
		if err := writeReport(outPath, rep, canonical); err != nil {
			fatal(err)
		}
	}
	if csvPath != "" {
		if err := writeCSV(csvPath, rep); err != nil {
			fatal(err)
		}
	}
	if outPath == "" && csvPath == "" {
		if err := writeReport("-", rep, canonical); err != nil {
			fatal(err)
		}
	}
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "cnfetsweep: %d/%d points failed\n", rep.Failed, len(rep.Points))
		stopProf() // os.Exit bypasses the deferred stop
		os.Exit(2)
	}
}

// runOnFabric ships the spec to a sweep-fabric coordinator via the
// shared fabric client and relays the streamed progress; main renders
// the merged report exactly like a local run's (finish).
func runOnFabric(ctx context.Context, coordinator string, spec *sweep.Spec, n int, quiet bool) (*sweep.Report, error) {
	if !quiet {
		fmt.Fprintf(os.Stderr, "cnfetsweep: %d points via fabric coordinator %s\n", n, coordinator)
	}
	client := &fabric.Client{URL: coordinator}
	if !quiet {
		done := 0
		client.OnLine = func(line fabric.StreamLine) {
			if line.Point != nil {
				done++
				status := "ok"
				if line.Point.Error != "" {
					status = "ERROR: " + line.Point.Error
				}
				fmt.Fprintf(os.Stderr, "cnfetsweep: [%d/%d] %s (%s, %s)\n", done, n, line.Point.ID, line.Worker, status)
			}
			if line.Lease != nil && line.Lease.State != "dispatch" && line.Lease.State != "done" {
				fmt.Fprintf(os.Stderr, "cnfetsweep: lease [%d,%d) %s (attempt %d): %s\n",
					line.Lease.Offset, line.Lease.Offset+line.Lease.Count, line.Lease.State, line.Lease.Attempt, line.Lease.Error)
			}
		}
	}
	rep, err := client.RunSweep(ctx, *spec)
	if err != nil {
		return nil, err
	}

	if !quiet {
		printSummary(os.Stderr, rep)
		if tr := rep.Trace; tr != nil && tr.FabricWorkers > 0 {
			fmt.Fprintf(os.Stderr, "cnfetsweep: fabric: %d workers, %d leases, %d retries\n",
				tr.FabricWorkers, tr.Leases, tr.LeaseRetries)
		}
	}
	return rep, nil
}

type specFlags struct {
	specPath, name, circuits, techs, placements, wirecaps string
	tubes, angles, seeds, analyses                        string
	zip                                                   bool
}

// assembleSpec builds the spec from a file, which runs as written, or
// from the flags.
func assembleSpec(f specFlags) (*sweep.Spec, error) {
	var spec sweep.Spec
	if f.specPath != "" {
		var r io.Reader
		if f.specPath == "-" {
			r = os.Stdin
		} else {
			file, err := os.Open(f.specPath)
			if err != nil {
				return nil, err
			}
			defer file.Close()
			r = file
		}
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", f.specPath, err)
		}
	} else {
		spec.Axes.Circuits = splitList(f.circuits)
		if f.techs != "" {
			spec.Axes.TechSets = strings.Split(f.techs, "/")
		}
		spec.Axes.Placements = splitList(f.placements)
		var err error
		if spec.Axes.WireCaps, err = parseFloats(f.wirecaps); err != nil {
			return nil, fmt.Errorf("-wirecaps: %w", err)
		}
		if spec.Axes.MCTubes, err = parseInts(f.tubes); err != nil {
			return nil, fmt.Errorf("-tubes: %w", err)
		}
		if spec.Axes.MCAngles, err = parseFloats(f.angles); err != nil {
			return nil, fmt.Errorf("-angles: %w", err)
		}
		seeds, err := parseInts(f.seeds)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %w", err)
		}
		for _, s := range seeds {
			spec.Axes.Seeds = append(spec.Axes.Seeds, int64(s))
		}
		for _, a := range splitList(f.analyses) {
			spec.Base.Analyses = append(spec.Base.Analyses, flow.Analysis(a))
		}
		spec.Name, spec.Zip = f.name, f.zip
	}
	return &spec, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func printSummary(w io.Writer, rep *sweep.Report) {
	tr := rep.Trace
	fmt.Fprintf(w, "cnfetsweep: %d points (%d failed) in %.1fms; %d/%d stages from cache (%d cache entries)\n",
		len(rep.Points), rep.Failed, tr.WallMillis, tr.CacheHitStages, tr.TotalStages, tr.CacheEntriesAfter)
	names := make([]string, 0, len(rep.Summary))
	for name := range rep.Summary {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.Summary[name]
		fmt.Fprintf(w, "  %-22s n=%-3d min %-12.6g p50 %-12.6g p90 %-12.6g max %-12.6g\n",
			name, s.Count, s.Min, s.P50, s.P90, s.Max)
	}
	for _, y := range rep.YieldVsTubes {
		fmt.Fprintf(w, "  yield @%d tubes: %.4f (%d points)\n", y.MCTubes, y.Yield, y.Points)
	}
	if len(rep.Pareto) > 0 {
		fmt.Fprintf(w, "  pareto front: %d points\n", len(rep.Pareto))
	}
}

func writeReport(path string, rep *sweep.Report, canonical bool) error {
	var blob []byte
	var err error
	if canonical {
		blob, err = rep.CanonicalJSON()
	} else {
		blob, err = json.MarshalIndent(rep, "", "  ")
	}
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

// writeCSV renders one row per point: identity, axis values, then the
// union of flattened metrics (sorted columns, empty cells where a point
// lacks a metric). encoding/csv quotes cells, so comma-carrying values
// (multi-tech sets, error messages) stay one column.
func writeCSV(path string, rep *sweep.Report) error {
	paramCols := map[string]bool{}
	metricCols := map[string]bool{}
	metrics := make([]map[string]float64, len(rep.Points))
	for i, pr := range rep.Points {
		for k := range pr.Params {
			paramCols[k] = true
		}
		metrics[i] = pr.Metrics()
		for k := range metrics[i] {
			metricCols[k] = true
		}
	}
	params := sortedKeys(paramCols)
	cols := sortedKeys(metricCols)

	headers := append([]string{"index", "id"}, params...)
	headers = append(headers, cols...)
	headers = append(headers, "error")
	var rows [][]string
	for i, pr := range rep.Points {
		row := []string{strconv.Itoa(pr.Index), pr.ID}
		for _, p := range params {
			if v, ok := pr.Params[p]; ok {
				row = append(row, fmt.Sprintf("%v", v))
			} else {
				row = append(row, "")
			}
		}
		for _, c := range cols {
			if v, ok := metrics[i][c]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		row = append(row, pr.Error)
		rows = append(rows, row)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	err = w.Write(headers)
	if err == nil {
		err = w.WriteAll(rows) // flushes
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cnfetsweep:", err)
	stopProf()
	os.Exit(1)
}
