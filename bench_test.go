package cnfetdk_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section III Table 1, Section V case studies 1-2, Figs 2-9).
// Each benchmark prints a paper-vs-measured comparison once (b.Logf, shown
// with -v) and exports its headline numbers as custom benchmark metrics so
// plain `go test -bench=.` output records them.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/cnt"
	"cnfetdk/internal/device"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/place"
	"cnfetdk/internal/report"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/sta"
	"cnfetdk/internal/sweep"
	"cnfetdk/internal/synth"
)

var (
	kitOnce sync.Once
	kitVal  *flow.Kit
	kitErr  error
)

func kit(b *testing.B) *flow.Kit {
	b.Helper()
	kitOnce.Do(func() { kitVal, kitErr = flow.New(context.Background()) })
	if kitErr != nil {
		b.Fatal(kitErr)
	}
	return kitVal
}

func mustGate(b *testing.B, f string) *network.Gate {
	b.Helper()
	g, err := network.NewGate(f, logic.MustParse(f), 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func genCell(b *testing.B, f string, style layout.Style, w int) *layout.Cell {
	b.Helper()
	c, err := layout.Generate(f, mustGate(b, f), style, geom.Lambda(w), rules.Default65nm(rules.CNFET))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// monteCarlo runs one uncancelled Monte Carlo batch on the checker.
func monteCarlo(b *testing.B, ch *immunity.Checker, n int, maxAngleDeg float64, rng *rand.Rand, workers int) immunity.Report {
	b.Helper()
	rep, err := ch.MonteCarloCtx(context.Background(), n, maxAngleDeg, rng, workers)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// runCaseStudy2 runs case study 2 through the job API: the scheme-2
// full-adder job (areas, delays and energies of both technologies) and
// the scheme-1 CNFET area job that completes the paper's
// three-placement table.
func runCaseStudy2(k *flow.Kit) (s2, s1 *flow.Result, err error) {
	ctx := context.Background()
	s2, err = k.Run(ctx, flow.Request{
		Circuit:  "fulladder",
		Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisDelay, flow.AnalysisEnergy},
	})
	if err != nil {
		return nil, nil, err
	}
	s1, err = k.Run(ctx, flow.Request{
		Circuit: "fulladder", Techs: []string{"cnfet"}, Placement: "rows",
		Analyses: []flow.Analysis{flow.AnalysisArea},
	})
	return s2, s1, err
}

// BenchmarkTable1AreaComparison regenerates Table 1: area saving of the
// compact layouts over the etched-region layouts of ref [6].
func BenchmarkTable1AreaComparison(b *testing.B) {
	b.ReportAllocs()
	cells := []struct {
		name, f string
		paper   [4]float64 // paper's percentages at 3/4/6/10λ
	}{
		{"Inverter", "A", [4]float64{0, 0, 0, 0}},
		{"NAND2", "AB", [4]float64{17.18, 14.52, 11.67, 9.25}},
		{"NAND3", "ABC", [4]float64{19.64, 16.67, 13.45, 10.71}},
		{"AOI22", "AB+CD", [4]float64{32.2, 27.7, 22.5, 14.9}},
		{"AOI21", "AB+C", [4]float64{44.3, 40.6, 36.4, 32.5}},
	}
	sizes := []int{3, 4, 6, 10}
	var nand3at4 float64
	for i := 0; i < b.N; i++ {
		tab := &report.Table{
			Title:   "Table 1 (measured% / paper%)",
			Headers: []string{"Cell", "3λ", "4λ", "6λ", "10λ"},
		}
		for _, c := range cells {
			row := []string{c.name}
			for k, w := range sizes {
				oldA := genCell(b, c.f, layout.StyleEtched, w).NetworksArea()
				newA := genCell(b, c.f, layout.StyleCompact, w).NetworksArea()
				saving := 100 * (1 - newA/oldA)
				if c.name == "NAND3" && w == 4 {
					nand3at4 = saving
				}
				row = append(row, fmt.Sprintf("%.1f/%.1f", saving, c.paper[k]))
			}
			tab.AddRow(row...)
		}
		if i == 0 {
			b.Logf("\n%s", tab.String())
		}
	}
	b.ReportMetric(nand3at4, "NAND3@4λ-%")
}

// BenchmarkFig2Immunity reproduces the vulnerable-vs-immune comparison:
// Monte Carlo failure rate of the conventional NAND2 layout against the
// certified-immune compact layout.
func BenchmarkFig2Immunity(b *testing.B) {
	b.ReportAllocs()
	vuln := genCell(b, "AB", layout.StyleVulnerable, 4)
	comp := genCell(b, "AB", layout.StyleCompact, 4)
	var failRate float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		vc := immunity.NewChecker(vuln.PUN, vuln.Gate.PUN, vuln.Gate.Inputs)
		cc := immunity.NewChecker(comp.PUN, comp.Gate.PUN, comp.Gate.Inputs)
		vr := monteCarlo(b, vc, 2000, 15, rng, 0)
		cr := monteCarlo(b, cc, 2000, 15, rand.New(rand.NewSource(42)), 0)
		failRate = vr.FailureRate()
		if i == 0 {
			b.Logf("vulnerable NAND2 PUN fail rate %.2f%%; compact %.2f%% (paper: immune = 0)",
				100*vr.FailureRate(), 100*cr.FailureRate())
		}
		if cr.BadTubes != 0 {
			b.Fatal("compact layout must be immune")
		}
	}
	b.ReportMetric(100*failRate, "vulnerable-fail-%")
}

// BenchmarkFig3NAND3 regenerates the Fig 3 comparison: NAND3 etched vs
// compact, both immune, 16.67% smaller at 4λ.
func BenchmarkFig3NAND3(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		etched := genCell(b, "ABC", layout.StyleEtched, 4)
		compact := genCell(b, "ABC", layout.StyleCompact, 4)
		saving = 100 * (1 - compact.NetworksArea()/etched.NetworksArea())
		if i == 0 {
			p1, d1 := immunity.VerifyImmunity(etched)
			p2, d2 := immunity.VerifyImmunity(compact)
			b.Logf("etched %d etches %d vias, compact %d etches %d vias; both immune=%v; saving %.2f%% (paper 16.67%%)",
				len(etched.PUN.Etches()), etched.ViasOnGate(),
				len(compact.PUN.Etches()), compact.ViasOnGate(),
				p1.Immune() && d1.Immune() && p2.Immune() && d2.Immune(), saving)
		}
	}
	b.ReportMetric(saving, "saving-%")
}

// BenchmarkFig4AOI31 regenerates the generalized SOP/POS example: the
// AOI31 (ABC+D)' basic layout with its intermediate-contact PUN and the
// symmetric width assignment (PDN chain 3x, PUN 2x).
func BenchmarkFig4AOI31(b *testing.B) {
	b.ReportAllocs()
	var contacts float64
	for i := 0; i < b.N; i++ {
		c := genCell(b, "ABC+D", layout.StyleCompact, 4)
		pun, pdn := immunity.VerifyImmunity(c)
		if !pun.Immune() || !pdn.Immune() {
			b.Fatal("AOI31 compact layout must be immune")
		}
		contacts = float64(len(c.PUN.Contacts()))
		if i == 0 {
			widths := map[string]float64{}
			for _, d := range c.Gate.PDN.Devices {
				widths["PDN:"+d.Gate] = d.Width
			}
			for _, d := range c.Gate.PUN.Devices {
				widths["PUN:"+d.Gate] = d.Width
			}
			b.Logf("AOI31: PUN %d contacts (intermediate m contacts for the product-of-sums), widths %v (paper: chain 3x, PUN 2x)",
				len(c.PUN.Contacts()), widths)
		}
	}
	b.ReportMetric(contacts, "pun-contacts")
}

// BenchmarkFig6Schemes assembles the NAND2 standard cell both ways and
// reports the scheme heights (scheme 2 collapses the cell height).
func BenchmarkFig6Schemes(b *testing.B) {
	b.ReportAllocs()
	var h1, h2 float64
	for i := 0; i < b.N; i++ {
		c := genCell(b, "AB", layout.StyleCompact, 4)
		s1 := c.Assemble(layout.Scheme1)
		s2 := c.Assemble(layout.Scheme2)
		h1, h2 = s1.Height.Lambdas(), s2.Height.Lambdas()
		if i == 0 {
			b.Logf("NAND2 scheme1 %vλ x %vλ, scheme2 %vλ x %vλ",
				s1.Width.Lambdas(), h1, s2.Width.Lambdas(), h2)
		}
	}
	b.ReportMetric(h1/h2, "height-ratio")
}

// BenchmarkFig7FO4Sweep regenerates the Fig 7 series (delay gain vs CNT
// count) with the calibrated model and reports the optimum.
func BenchmarkFig7FO4Sweep(b *testing.B) {
	b.ReportAllocs()
	p := device.DefaultFO4()
	var peak float64
	var optPitch float64
	for i := 0; i < b.N; i++ {
		opt := p.OptimalN(60)
		peak = p.DelayGain(opt)
		optPitch = device.Pitch(opt)
		if i == 0 {
			var s report.Series
			for n := 1; n <= 40; n++ {
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, p.DelayGain(n))
			}
			var buf bytes.Buffer
			s.Name = "FO4 delay gain vs tubes"
			report.ASCIIPlot(&buf, s, 64, 12)
			b.Logf("\n%s\npeak %.2fx at pitch %.2fnm (paper: 4.2x at 5nm)", buf.String(), peak, optPitch)
		}
	}
	b.ReportMetric(peak, "peak-delay-gain")
	b.ReportMetric(optPitch, "optimal-pitch-nm")
}

// BenchmarkCase1Inverter regenerates the case study 1 numbers: single-tube
// gains, optimum gains, pitch band and inverter area gain vs width.
func BenchmarkCase1Inverter(b *testing.B) {
	b.ReportAllocs()
	p := device.DefaultFO4()
	k := kit(b)
	var d1, e1, dOpt, eOpt, area float64
	for i := 0; i < b.N; i++ {
		d1, e1 = p.DelayGain(1), p.EnergyGain(1)
		opt := p.OptimalN(60)
		dOpt, eOpt = p.DelayGain(opt), p.EnergyGain(26)
		var err error
		area, err = k.CellAreaGain(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("1 tube: %.2fx delay %.2fx energy (paper 2.75/6.3); optimum: %.2fx/%.2fx (paper 4.2/2.0); area gain %.2fx @4λ (paper 1.4)",
				d1, e1, dOpt, eOpt, area)
		}
	}
	b.ReportMetric(d1, "delay-gain-1tube")
	b.ReportMetric(e1, "energy-gain-1tube")
	b.ReportMetric(dOpt, "delay-gain-opt")
	b.ReportMetric(eOpt, "energy-gain-5nm")
	b.ReportMetric(area, "inv-area-gain")
}

// BenchmarkCase2FullAdder runs the full case study 2 (placement + spice).
func BenchmarkCase2FullAdder(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	var delayGain, energyGain, areaGainS1, areaGainS2 float64
	for i := 0; i < b.N; i++ {
		s2, s1, err := runCaseStudy2(k)
		if err != nil {
			b.Fatal(err)
		}
		delayGain, energyGain, areaGainS2 = s2.Gains["delay"], s2.Gains["energy"], s2.Gains["area"]
		areaGainS1 = s2.Techs["cmos"].AreaLam2 / s1.Techs["cnfet"].AreaLam2
		if i == 0 {
			b.Logf("delay %.2fx (paper ~3.5), energy %.2fx (paper ~1.5), area s1 %.2fx (paper ~1.4) s2 %.2fx (paper ~1.6)",
				delayGain, energyGain, areaGainS1, areaGainS2)
		}
	}
	b.ReportMetric(delayGain, "delay-gain")
	b.ReportMetric(energyGain, "energy-gain")
	b.ReportMetric(areaGainS1, "area-gain-s1")
	b.ReportMetric(areaGainS2, "area-gain-s2")
}

// BenchmarkFig8Placement reports the utilization story behind Fig 8:
// normalized scheme-1 rows vs natural-height scheme-2 shelves.
func BenchmarkFig8Placement(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	nl := synth.FullAdder()
	var u1, u2 float64
	for i := 0; i < b.N; i++ {
		p1, err := place.Rows(k.CNFET, nl, 2)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := place.Shelves(k.CNFET, nl, 0)
		if err != nil {
			b.Fatal(err)
		}
		u1, u2 = p1.Utilization(), p2.Utilization()
		if i == 0 {
			b.Logf("scheme1 rows: %.0fλ² util %.2f; scheme2 shelves: %.0fλ² util %.2f",
				p1.Area(), u1, p2.Area(), u2)
		}
	}
	b.ReportMetric(u1, "util-s1")
	b.ReportMetric(u2, "util-s2")
}

// BenchmarkFig9GDS streams the scheme-2 full adder to GDSII and reads it
// back (the paper's Fig 9 layout snapshot as a byte stream).
func BenchmarkFig9GDS(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	nl := synth.FullAdder()
	p2, err := place.Shelves(k.CNFET, nl, 0)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := flow.WritePlacementGDS(&buf, k.CNFET, p2, "FULLADDER_S2"); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		lib, err := gdsii.Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if lib.Find("FULLADDER_S2") == nil {
			b.Fatal("round trip lost the top cell")
		}
	}
	b.ReportMetric(float64(size), "gds-bytes")
}

// BenchmarkHeadlineGains reports the abstract's headline numbers: EDP gain
// above 8 at the optimum (>10 across the sweep) and EDAP ~12x.
func BenchmarkHeadlineGains(b *testing.B) {
	b.ReportAllocs()
	p := device.DefaultFO4()
	k := kit(b)
	var edp, edap float64
	for i := 0; i < b.N; i++ {
		opt := p.OptimalN(60)
		areaGain, err := k.CellAreaGain(1)
		if err != nil {
			b.Fatal(err)
		}
		edp = p.EDPGain(opt)
		edap = edp * areaGain
		if i == 0 {
			b.Logf("inverter EDP gain %.1fx at optimum (paper >8-10x), EDAP %.1fx (paper ~12x)", edp, edap)
		}
	}
	b.ReportMetric(edp, "edp-gain")
	b.ReportMetric(edap, "edap-gain")
}

// BenchmarkAblationScreening shows the paper's claim that the optimal
// pitch is a technology parameter: sweeping the screening scale moves the
// optimum (their 65nm low-k/poly: 5nm; Deng's 32nm high-k: 4nm).
func BenchmarkAblationScreening(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		base := device.DefaultFO4()
		pitches := []float64{}
		for _, scale := range []float64{0.6, 1.0, 1.6} {
			p := base
			p.Screen.PitchScaleNM = base.Screen.PitchScaleNM * scale
			pitches = append(pitches, p.OptimalPitchNM(60))
		}
		spread = pitches[2] - pitches[0]
		if i == 0 {
			b.Logf("optimal pitch vs screening scale {0.6,1.0,1.6}: %.2f / %.2f / %.2f nm", pitches[0], pitches[1], pitches[2])
		}
		if spread <= 0 {
			b.Fatal("stronger screening must move the optimum to sparser pitch")
		}
	}
	b.ReportMetric(spread, "pitch-spread-nm")
}

// BenchmarkAblationVerticalGating quantifies the manufacturability cost
// the compact layouts remove: vias-on-gate across the Table 1 cells.
func BenchmarkAblationVerticalGating(b *testing.B) {
	b.ReportAllocs()
	var viasOld, viasNew float64
	for i := 0; i < b.N; i++ {
		viasOld, viasNew = 0, 0
		for _, f := range []string{"AB", "ABC", "AB+C", "AB+CD", "ABC+D"} {
			viasOld += float64(genCell(b, f, layout.StyleEtched, 4).ViasOnGate())
			viasNew += float64(genCell(b, f, layout.StyleCompact, 4).ViasOnGate())
		}
		if i == 0 {
			b.Logf("vias-on-gate across 5 cells: etched %c%.0f, compact %.0f", '~', viasOld, viasNew)
		}
		if viasNew != 0 {
			b.Fatal("compact layouts must not need vertical gating")
		}
	}
	b.ReportMetric(viasOld, "etched-vias")
}

// BenchmarkLibraryBuildSequential is the reference path of the staged
// pipeline engine: the full CNFET library (gate synthesis, compact layout
// generation, DRC) on a single worker.
func BenchmarkLibraryBuildSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cells.NewLibraryCtx(context.Background(), rules.CNFET, cells.BuildOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLibraryBuildPipelined is the same build fanned out across one
// worker per CPU; with GOMAXPROCS>1 it must beat the sequential path.
func BenchmarkLibraryBuildPipelined(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cells.NewLibraryCtx(context.Background(), rules.CNFET, cells.BuildOptions{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowCachedRerun measures a repeated full-adder flow run against
// a warm kit cache: every stage (placement, SPICE, energy) is served from
// the content-keyed memo cache.
func BenchmarkFlowCachedRerun(b *testing.B) {
	b.ReportAllocs()
	k, err := flow.New(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := runCaseStudy2(k); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runCaseStudy2(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k.CacheLen()), "cached-stages")
}

// benchSweepSpec is the sweep benchmark workload: 2 circuits x 2
// placement schemes x 3 Monte Carlo tube counts = 12 points whose
// netlist and placement stages are shared across the tube-count axis.
func benchSweepSpec() sweep.Spec {
	return sweep.Spec{
		Name: "bench",
		Base: flow.Request{
			Techs:    []string{"cnfet"},
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
		},
		Axes: sweep.Axes{
			Circuits:   []string{"mux2", "dec2"},
			Placements: []string{"rows", "shelves"},
			MCTubes:    []int{16, 32, 48},
		},
	}
}

// BenchmarkSweepSharedCache measures the batch engine on one shared kit:
// after the first expansion warms the memo cache, every rerun of the
// 12-point sweep serves all stages from cache — the scenario-exploration
// hot path.
func BenchmarkSweepSharedCache(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	spec := benchSweepSpec()
	var hits, total int
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), k, spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d points failed", rep.Failed)
		}
		hits, total = rep.Trace.CacheHitStages, rep.Trace.TotalStages
	}
	b.ReportMetric(float64(hits), "cached-stages")
	b.ReportMetric(float64(total), "total-stages")
}

// BenchmarkSweepColdPoints is the contrast case the sweep engine
// removes: the same 12 points issued as independent Kit.Run calls
// against a fresh (empty) cache each iteration, so no prefix stage is
// ever shared. The gap to BenchmarkSweepSharedCache is the batching win.
func BenchmarkSweepColdPoints(b *testing.B) {
	b.ReportAllocs()
	spec := benchSweepSpec()
	points, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, pt := range points {
			// One fresh kit per point: an empty memo cache every time,
			// like separate processes issuing unrelated jobs.
			k, err := flow.New(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := k.Run(context.Background(), pt.Request); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// storeBenchRequest is the disk-store benchmark workload: the full-adder
// flow with its expensive transistor-level stages, so the cold/warm gap
// measures real recomputation saved, not just bookkeeping.
func storeBenchRequest() flow.Request {
	return flow.Request{
		Circuit:  "fulladder",
		Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisDelay, flow.AnalysisEnergy},
	}
}

// BenchmarkStoreDiskCold measures the worst case of the persistent
// artifact store: a fresh kit over an empty store directory computes
// every stage and writes each result through to disk. The delta against
// BenchmarkCase2FullAdder-style warm in-memory reruns is the
// write-through overhead; the delta against BenchmarkStoreDiskWarm is
// the cross-process warm-start win.
func BenchmarkStoreDiskCold(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		k, err := flow.New(ctx, flow.WithStore(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(ctx, storeBenchRequest()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreDiskWarm measures the cross-process warm start: every
// iteration builds a fresh kit (fresh memory tier — a new process,
// morally) over a store directory populated once, so every stage is
// decoded from the disk tier instead of recomputed.
func BenchmarkStoreDiskWarm(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	dir := b.TempDir()
	seed, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Run(ctx, storeBenchRequest()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var diskHits int64
	for i := 0; i < b.N; i++ {
		k, err := flow.New(ctx, flow.WithStore(dir))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(ctx, storeBenchRequest()); err != nil {
			b.Fatal(err)
		}
		st := k.CacheStats()
		if st.Disk == nil || st.Disk.Hits == 0 {
			b.Fatal("warm run must serve from the disk tier")
		}
		diskHits = st.Disk.Hits
	}
	b.ReportMetric(float64(diskHits), "disk-hits")
}

// BenchmarkMonteCarloSequential checks 4000 tubes on the NAND3 compact
// cell on a single worker — the reference for the sharded path below.
func BenchmarkMonteCarloSequential(b *testing.B) {
	b.ReportAllocs()
	c := genCell(b, "ABC", layout.StyleCompact, 4)
	ch := immunity.NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := monteCarlo(b, ch, 4000, 15, rng, 1)
		if !rep.Immune() {
			b.Fatal("NAND3 compact must be immune")
		}
	}
	b.ReportMetric(4000, "tubes/op")
}

// BenchmarkMonteCarloPipelined is the same batch sharded across one
// worker per CPU; the report is bit-identical to the sequential run.
func BenchmarkMonteCarloPipelined(b *testing.B) {
	b.ReportAllocs()
	c := genCell(b, "ABC", layout.StyleCompact, 4)
	ch := immunity.NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := monteCarlo(b, ch, 4000, 15, rng, 0)
		if !rep.Immune() {
			b.Fatal("NAND3 compact must be immune")
		}
	}
	b.ReportMetric(4000, "tubes/op")
}

// BenchmarkMonteCarloThroughput measures the immunity checker itself —
// tubes verified per second on the NAND3 compact cell.
func BenchmarkMonteCarloThroughput(b *testing.B) {
	b.ReportAllocs()
	c := genCell(b, "ABC", layout.StyleCompact, 4)
	ch := immunity.NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := monteCarlo(b, ch, 1000, 15, rng, 0)
		if !rep.Immune() {
			b.Fatal("NAND3 compact must be immune")
		}
	}
	b.ReportMetric(1000, "tubes/op")
}

// BenchmarkFunctionalYield measures the full-cell yield analysis used in
// the Fig 2 experiment.
func BenchmarkFunctionalYield(b *testing.B) {
	b.ReportAllocs()
	c := genCell(b, "AB", layout.StyleCompact, 6)
	cc := immunity.NewCellChecker(c)
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.25
	params.PitchNM = 20
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	var y float64
	for i := 0; i < b.N; i++ {
		y = cc.FunctionalYield(10, params, rng)
		if y != 1 {
			b.Fatal("compact NAND2 yield must be 1.0")
		}
	}
	b.ReportMetric(y, "yield")
}

// BenchmarkScalingRippleCarry extends case study 2 to multi-bit adders:
// the scheme-2 packing advantage persists (and grows slightly) as the
// design scales to many minimum-to-medium cells — the regime the paper
// says scheme 2 targets.
func BenchmarkScalingRippleCarry(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	var gain2, gain4 float64
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{2, 4} {
			nl := synth.RippleCarryAdder(bits)
			cm, err := place.Rows(k.CMOS, nl, 0)
			if err != nil {
				b.Fatal(err)
			}
			s2, err := place.Shelves(k.CNFET, nl, 0)
			if err != nil {
				b.Fatal(err)
			}
			g := cm.Area() / s2.Area()
			if bits == 2 {
				gain2 = g
			} else {
				gain4 = g
			}
			if i == 0 {
				b.Logf("rca%d: %d cells, CMOS %.0fλ² vs scheme2 %.0fλ² -> %.2fx",
					bits, len(nl.Instances), cm.Area(), s2.Area(), g)
			}
		}
	}
	b.ReportMetric(gain2, "rca2-area-gain")
	b.ReportMetric(gain4, "rca4-area-gain")
}

// BenchmarkExtensionMetallicYield probes the assumption the paper defers
// to manufacturing (Section II): residual metallic tubes short gates
// regardless of layout style, so functional yield collapses as the
// metallic fraction grows — quantifying why removal must happen upstream.
func BenchmarkExtensionMetallicYield(b *testing.B) {
	b.ReportAllocs()
	c := genCell(b, "AB", layout.StyleCompact, 6)
	cc := immunity.NewCellChecker(c)
	var y0, y20 float64
	for i := 0; i < b.N; i++ {
		params := cnt.DefaultParams()
		params.PitchNM = 20
		params.MisalignedFrac = 0
		params.MetallicFrac = 0
		y0 = cc.FunctionalYield(40, params, rand.New(rand.NewSource(5)))
		params.MetallicFrac = 0.20
		y20 = cc.FunctionalYield(40, params, rand.New(rand.NewSource(5)))
		if i == 0 {
			b.Logf("functional yield: 0%% metallic %.0f%%, 20%% metallic %.0f%% (immune layouts cannot fix metallic shorts)",
				100*y0, 100*y20)
		}
	}
	if y0 != 1 {
		b.Fatal("clean population must yield 1.0")
	}
	if y20 >= y0 {
		b.Fatal("metallic tubes must hurt yield")
	}
	b.ReportMetric(100*y20, "yield-at-20%-metallic")
}

// BenchmarkSTAFullAdder times the static-timing path of the kit: NLDM
// characterization reuse + graph traversal, versus the full transient.
func BenchmarkSTAFullAdder(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	nl := synth.FullAdder()
	used := map[string]bool{}
	for _, inst := range nl.Instances {
		used[inst.Cell] = true
	}
	m, err := liberty.Characterize(context.Background(), k.CNFET, nil, func(n string) bool { return used[n] }, 0)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := place.Shelves(k.CNFET, nl, 0)
	if err != nil {
		b.Fatal(err)
	}
	wire := flow.WireCapsWith(p2, nl, k.CNFET.Rules.LambdaNM, flow.WireCapPerNM)
	b.ResetTimer()
	var arrival float64
	for i := 0; i < b.N; i++ {
		res, err := sta.Analyze(nl, m, wire)
		if err != nil {
			b.Fatal(err)
		}
		arrival = res.WorstArrivalS
	}
	b.ReportMetric(arrival*1e12, "critical-path-ps")
}

// BenchmarkSTABuild times sta.Analyze on mult8: interning, CSR fan-out
// build, levelization, one full propagation and the report.
// Characterizing the NLDM model over exactly mult8's cells and placing
// it is setup, not measured.
func BenchmarkSTABuild(b *testing.B) {
	b.ReportAllocs()
	k := kit(b)
	c, err := flow.LookupCircuit("mult8")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	used := map[string]bool{}
	for _, inst := range nl.Instances {
		used[inst.Cell] = true
	}
	m, err := liberty.Characterize(context.Background(), k.CNFET, nil, func(n string) bool { return used[n] }, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, err := place.Shelves(k.CNFET, nl, 0)
	if err != nil {
		b.Fatal(err)
	}
	wire := flow.WireCapsWith(p, nl, k.CNFET.Rules.LambdaNM, flow.WireCapPerNM)
	b.ResetTimer()
	var res *sta.Result
	for i := 0; i < b.N; i++ {
		res, err = sta.Analyze(nl, m, wire)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(nl.Instances)), "instances")
	b.ReportMetric(float64(res.Levels), "levels")
}

// delaySweepCaps is the wire-cap axis of BenchmarkDelaySweepTransient:
// three interconnect corners around the kit default.
var delaySweepCaps = []float64{0.03e-18, 0.06e-18, 0.12e-18}

// BenchmarkDelaySweepTransient prices a wire-model sweep through the
// flow's delay stage: one transistor-level transient per point. Each
// iteration runs on a fresh kit so the memo cache never serves a point
// across iterations or -count repeats — within one iteration the three
// points still share their prefix stages (netlist, placement).
func BenchmarkDelaySweepTransient(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		k, err := flow.New(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, capPerNM := range delaySweepCaps {
			req := flow.Request{
				Circuit:      "mult4",
				Techs:        []string{"cnfet"},
				Analyses:     []flow.Analysis{flow.AnalysisDelay},
				WireCapPerNM: capPerNM,
			}
			res, err := k.Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if res.Techs["cnfet"].DelayS <= 0 {
				b.Fatal("no delay")
			}
		}
	}
	b.ReportMetric(float64(len(delaySweepCaps)), "points")
}

// BenchmarkAngleSensitivity sweeps the misalignment-angle bound for the
// vulnerable NAND2. Counter-intuitively, *small* angle bounds are the most
// dangerous for this geometry: a nearly-horizontal tube that enters the
// doped inter-strip band rides inside it all the way from the VDD column
// to the OUT column, while steeper tubes tend to exit the band and hit a
// gate or leave the active region. The compact layout stays at zero for
// every bound — its immunity is unconditional, not a small-angle artifact.
func BenchmarkAngleSensitivity(b *testing.B) {
	b.ReportAllocs()
	vuln := genCell(b, "AB", layout.StyleVulnerable, 4)
	comp := genCell(b, "AB", layout.StyleCompact, 4)
	var at5, at25 float64
	for i := 0; i < b.N; i++ {
		vc := immunity.NewChecker(vuln.PUN, vuln.Gate.PUN, vuln.Gate.Inputs)
		cc := immunity.NewChecker(comp.PUN, comp.Gate.PUN, comp.Gate.Inputs)
		var line string
		for _, ang := range []float64{5, 10, 15, 25} {
			vr := monteCarlo(b, vc, 1500, ang, rand.New(rand.NewSource(17)), 0)
			cr := monteCarlo(b, cc, 1500, ang, rand.New(rand.NewSource(17)), 0)
			if cr.BadTubes != 0 {
				b.Fatal("compact layout must stay immune at every angle")
			}
			line += fmt.Sprintf(" ±%.0f°:%.1f%%", ang, 100*vr.FailureRate())
			switch ang {
			case 5:
				at5 = vr.FailureRate()
			case 25:
				at25 = vr.FailureRate()
			}
		}
		if i == 0 {
			b.Logf("vulnerable NAND2 failure rate vs angle bound:%s (compact: 0%% throughout)", line)
		}
		if at25 <= 0 || at5 <= 0 {
			b.Fatal("the vulnerable layout must fail at every angle bound")
		}
	}
	b.ReportMetric(100*at5, "fail-%-at-5deg")
	b.ReportMetric(100*at25, "fail-%-at-25deg")
}

// delayBench builds a registry circuit's delay testbench — the same
// construction the flow's delay analysis uses: the instantiated netlist
// plus sorted static DC sources and the stimulus pulse.
func delayBench(b *testing.B, k *flow.Kit, name string) *spice.Circuit {
	b.Helper()
	c, err := flow.LookupCircuit(name)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	ckt, _, err := k.BuildCircuit(k.CNFET, nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	period := 4000e-12
	statics := make([]string, 0, len(c.Stimulus.Static))
	for in := range c.Stimulus.Static {
		statics = append(statics, in)
	}
	sort.Strings(statics)
	for _, in := range statics {
		level := 0.0
		if c.Stimulus.Static[in] {
			level = device.Vdd
		}
		ckt.AddV("vin."+in, in, "0", spice.DC(level))
	}
	ckt.AddV("vin."+c.Stimulus.Pulse, c.Stimulus.Pulse, "0", spice.Pulse{
		V0: 0, V1: device.Vdd, Delay: period / 4,
		Rise: 5e-12, Fall: 5e-12, W: period / 2, Period: period,
	})
	return ckt
}

// transientBenchCases is the solver-scaling ladder: one cell arc
// testbench (NAND2_1X, the shape liberty's NLDM grids and the variation
// ensembles run by the hundred), the full adder (32 unknowns) and the
// adders and multiplier (116/228/294 unknowns). Step counts shrink with
// size so every case stays in benchmark-friendly territory.
var transientBenchCases = []struct {
	name  string
	steps int
}{
	{"arc", 4000},
	{"fulladder", 400},
	{"rca4", 200},
	{"rca8", 100},
	{"mult4", 50},
}

// BenchmarkTransientSparse runs the ladder through the compiled sparse
// kernel with a warm workspace, probing what the flow measures: the arc
// testbench's in/out nets and supply current, and a design testbench's
// pulse input and primary outputs.
func BenchmarkTransientSparse(b *testing.B) {
	k := kit(b)
	for _, tc := range transientBenchCases {
		b.Run("n="+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var ckt *spice.Circuit
			var probes spice.Probes
			period := 4000e-12 * float64(tc.steps) / 8000
			if tc.name == "arc" {
				lib := k.CNFET
				c, vdd, err := lib.ArcCircuit(lib.MustGet("NAND2_1X"), "A", lib.ReferenceLoad(), cells.DefaultSlewS)
				if err != nil {
					b.Fatal(err)
				}
				ckt, period = c, cells.ArcPeriod
				probes = spice.Probes{Nodes: []string{"in", "out"}, Sources: []int{vdd}}
			} else {
				ckt = delayBench(b, k, tc.name)
				c, err := flow.LookupCircuit(tc.name)
				if err != nil {
					b.Fatal(err)
				}
				nl, err := c.Build()
				if err != nil {
					b.Fatal(err)
				}
				probes.Nodes = append([]string{c.Stimulus.Pulse}, nl.Outputs...)
			}
			opt := spice.DefaultOptions()
			ws := &spice.Workspace{}
			if _, err := ckt.TransientWith(ws, period, tc.steps, opt, probes); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ckt.TransientWith(ws, period, tc.steps, opt, probes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tc.steps), "steps")
		})
	}
}

// BenchmarkCharacterizationGrid measures one NAND2_1X arc over the
// default 3×5 (input slew × output load) NLDM grid: the unit of work of
// the nldm stage, 15 transients through one reused workspace.
func BenchmarkCharacterizationGrid(b *testing.B) {
	b.ReportAllocs()
	lib := kit(b).CNFET
	c := lib.MustGet("NAND2_1X")
	slews, loads := liberty.DefaultSlews(), liberty.DefaultLoads(lib.ReferenceLoad())
	for i := 0; i < b.N; i++ {
		if _, err := lib.Characterize(c, "A", slews, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariationEnsembleBatch re-runs one 8-sample variation
// ensemble of the NAND2_1X arc at one worker: lanes share the
// factorization plan and every rerun redraws devices into warmed
// workspaces. Steady state allocates only the worker pool's constant
// per Run (pinned by cells.TestEnsembleSteadyStateZeroAlloc).
func BenchmarkVariationEnsembleBatch(b *testing.B) {
	b.ReportAllocs()
	lib := kit(b).CNFET
	proto, _, err := lib.ArcCircuit(lib.MustGet("NAND2_1X"), "A", lib.ReferenceLoad(), cells.DefaultSlewS)
	if err != nil {
		b.Fatal(err)
	}
	e, err := cells.NewEnsemble(proto, device.Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}, 8)
	if err != nil {
		b.Fatal(err)
	}
	probes := spice.Probes{Nodes: []string{"in", "out"}}
	measure := func(r *spice.Result) (float64, error) { return r.PropDelay("in", "out", device.Vdd) }
	run := func() {
		if err := e.Run(context.Background(), 1, 7, cells.ArcPeriod, cells.ArcSteps, probes, measure); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm lane workspaces once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
