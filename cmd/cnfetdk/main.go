// Command cnfetdk is the per-circuit CLI: the end-to-end logic-to-GDSII
// flow driver (Fig 5), a thin CLI over the design-service API. It builds
// a flow.Request from Boolean output expressions (or a structural
// netlist, or a registry circuit name), runs it through Kit.Run, and
// reports every analysis it ran: CNFET results next to the CMOS
// reference with their gains, and the design's immunity certificate,
// plus GDSII output. At -scheme 2 the area report adds the scheme-1
// placement, so -circuit fulladder prints case study 2 (the Fig 8 full
// adder) with the paper's gains alongside. A design that is not immune
// exits with status 1.
//
// Usage:
//
//	cnfetdk -expr "Sum=A*B'+A'*B" -expr "C=A*B" -gds out.gds
//	cnfetdk -in design.net -scheme 2 -gds out.gds
//	cnfetdk -circuit rca4
//	cnfetdk -circuit fulladder -analyses area,delay,energy  # case study 2
//	cnfetdk -circuit mux2 -analyses immunity               # design certificate
//	cnfetdk -circuit fulladder -netlist    # dump the registry netlist
//	cnfetdk -circuit mux2 -timing          # print per-stage pipeline timing
//	cnfetdk -circuit mux2 -store .cnfet-store  # reuse stage results across invocations
//	cnfetdk -circuit mult4 -analyses delay -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/prof"
	"cnfetdk/internal/report"
)

type exprList []string

func (e *exprList) String() string     { return strings.Join(*e, ";") }
func (e *exprList) Set(s string) error { *e = append(*e, s); return nil }

// paperGains are case study 2's CNFET-over-CMOS gains (Section V.B),
// printed next to the measured ones for -circuit fulladder.
var paperGains = map[string]string{
	"area/1": "~1.4x", "area/2": "~1.6x", "delay": "~3.5x", "energy": "~1.5x",
}

func main() {
	var exprs exprList
	flag.Var(&exprs, "expr", "output expression NAME=f (repeatable)")
	in := flag.String("in", "", "structural netlist file (alternative to -expr)")
	circuit := flag.String("circuit", "", "registry circuit name (alternative to -expr/-in)")
	name := flag.String("name", "design", "design name")
	scheme := flag.Int("scheme", 2, "CNFET layout scheme (1 or 2)")
	gds := flag.String("gds", "", "output GDS path")
	workers := flag.Int("j", 0, "worker-pool width (0 = one per CPU, 1 = sequential)")
	analyses := flag.String("analyses", "area", "comma-separated analyses (area,delay,sta,energy,immunity)")
	dumpNetlist := flag.Bool("netlist", false, "print the -circuit netlist and exit")
	timing := flag.Bool("timing", false, "print per-stage pipeline timing on exit")
	storeDir := flag.String("store", "", "persistent artifact-store directory; repeated invocations skip completed stages")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the flow to this file")
	memprofile := flag.String("memprofile", "", "write an allocs profile to this file on exit")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	stopProf = stop // flushed by fail() too: error exits keep their profiles
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *dumpNetlist {
		if *circuit == "" {
			fail(fmt.Errorf("-netlist needs -circuit"))
		}
		c, err := flow.LookupCircuit(*circuit)
		if err != nil {
			fail(err)
		}
		nl, err := c.Build()
		if err != nil {
			fail(err)
		}
		if err := nl.Format(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	req, err := buildRequest(*circuit, exprs, *in, *name, *scheme, *analyses)
	if err != nil {
		fail(err)
	}
	trace := &pipeline.Trace{}
	kitOpts := []flow.Option{flow.WithWorkers(*workers), flow.WithTrace(trace)}
	if *storeDir != "" {
		kitOpts = append(kitOpts, flow.WithStore(*storeDir))
	}
	kit, err := flow.New(ctx, kitOpts...)
	if err != nil {
		fail(err)
	}
	res, err := kit.Run(ctx, req)
	if err != nil {
		fail(err)
	}
	var s1 *flow.Result
	if *scheme == 2 && res.Techs["cnfet"].AreaLam2 > 0 {
		// A scheme-1 area job completes the paper's three-placement
		// table; its netlist stage is a cache hit.
		s1Req := req
		s1Req.Techs = []string{"cnfet"}
		s1Req.Placement = "rows"
		s1Req.Analyses = []flow.Analysis{flow.AnalysisArea}
		if s1, err = kit.Run(ctx, s1Req); err != nil {
			fail(err)
		}
	}
	if err := render(os.Stdout, req, res, s1); err != nil {
		fail(err)
	}

	if *gds != "" {
		// A CNFET-only follow-up job renders the stream; its netlist
		// and placement stages come straight from the memo cache.
		gdsReq := req
		gdsReq.Techs = []string{"cnfet"}
		gdsReq.Analyses = []flow.Analysis{flow.AnalysisGDS}
		gres, err := kit.Run(ctx, gdsReq)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*gds, gres.Techs["cnfet"].GDS, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *gds)
	}

	if *timing {
		fmt.Printf("\npipeline stages (slowest first):\n%s", trace.String())
	}
}

// render writes the report of one job: the netlist size, then a block
// per analysis that ran, CNFET next to the CMOS reference with their
// gains. s1, when set, is the scheme-1 placement of the same design,
// printed after the area block of req's placement. A design that is
// not immune is an error naming its vulnerable cells, returned after
// the certificate is written.
func render(w io.Writer, req flow.Request, res, s1 *flow.Result) error {
	fmt.Fprintf(w, "netlist %s: %d instances, %d nets\n", res.Circuit, res.Instances, res.Nets)

	// gain renders a CNFET-over-CMOS gain, with the paper's value next
	// to it for the case-study circuit.
	gain := func(row string, g float64) string {
		s := "CNFET gain " + report.Gain(g)
		if p := paperGains[row]; p != "" && req.Circuit == "fulladder" {
			s += ", paper " + p
		}
		return "(" + s + ")"
	}
	// area reports one CNFET placement and the CMOS reference area.
	area := func(scheme int, cn, cm *flow.TechResult) {
		fmt.Fprintf(w, "placed (scheme %d): %.0fλ x %.0fλ = %.0f λ², utilization %.2f\n",
			scheme, cn.WidthLam, cn.HeightLam, cn.AreaLam2, cn.Utilization)
		fmt.Fprintf(w, "CMOS reference: %.0f λ² %s\n", cm.AreaLam2, gain(fmt.Sprintf("area/%d", scheme), cm.AreaLam2/cn.AreaLam2))
	}
	cn, cm := res.Techs["cnfet"], res.Techs["cmos"]
	if cn.AreaLam2 > 0 {
		scheme := 2
		if req.Placement == "rows" {
			scheme = 1
		}
		area(scheme, cn, cm)
		if s1 != nil {
			area(1, s1.Techs["cnfet"], cm)
		}
	}
	if cn.DelayS > 0 {
		fmt.Fprintf(w, "delay: %.1f ps\n", cn.DelayS*1e12)
		fmt.Fprintf(w, "CMOS delay: %.1f ps %s\n", cm.DelayS*1e12, gain("delay", res.Gains["delay"]))
	}
	if s := cn.STA; s != nil {
		fmt.Fprintf(w, "sta: %.1f ps over %d levels (%d instances), worst net %s\n",
			s.DelayS*1e12, s.Levels, s.Instances, s.WorstNet)
		if len(s.CriticalPath) > 0 {
			fmt.Fprintf(w, "critical path: %s\n", strings.Join(s.CriticalPath, " -> "))
		}
		if cm.STA != nil {
			fmt.Fprintf(w, "CMOS sta: %.1f ps %s\n", cm.STA.DelayS*1e12, gain("sta", res.Gains["sta"]))
		}
	}
	if cn.EnergyJ > 0 {
		fmt.Fprintf(w, "energy: %.2f fJ/cycle\n", cn.EnergyJ*1e15)
		fmt.Fprintf(w, "CMOS energy: %.2f fJ/cycle %s\n", cm.EnergyJ*1e15, gain("energy", res.Gains["energy"]))
	}
	if imm := cn.Immunity; imm != nil {
		fmt.Fprintf(w, "immunity: %d distinct cells, %d critical lines checked, %d violations\n",
			imm.CellsChecked, imm.CriticalLines, imm.Violations)
		if !imm.Immune {
			return fmt.Errorf("%d violations in cells %v", imm.Violations, imm.VulnerableCells)
		}
		fmt.Fprintln(w, "verdict: IMMUNE")
	}
	return nil
}

// buildRequest assembles the service request from the CLI surface.
func buildRequest(circuit string, exprs exprList, inPath, name string, scheme int, analyses string) (flow.Request, error) {
	req := flow.Request{
		Techs: []string{"cnfet", "cmos"},
	}
	for _, a := range strings.Split(analyses, ",") {
		switch a = strings.TrimSpace(a); a {
		case "":
		case "area", "delay", "sta", "energy", "immunity":
			req.Analyses = append(req.Analyses, flow.Analysis(a))
		case "gds":
			return req, fmt.Errorf("-analyses gds: write the placement with -gds FILE")
		case "liberty":
			return req, fmt.Errorf("-analyses liberty: characterize the circuit's cells with libchar -circuit")
		default:
			return req, fmt.Errorf("-analyses %s: cnfetdk reports area, delay, sta, energy and immunity", a)
		}
	}
	if scheme == 1 {
		req.Placement = "rows"
	}
	switch {
	case circuit != "":
		req.Circuit = circuit
	case inPath != "":
		blob, err := os.ReadFile(inPath)
		if err != nil {
			return req, err
		}
		req.Netlist = string(blob)
	case len(exprs) > 0:
		req.Name = name
		req.Exprs = map[string]string{}
		for _, s := range exprs {
			parts := strings.SplitN(s, "=", 2)
			if len(parts) != 2 {
				return req, fmt.Errorf("bad -expr %q, want NAME=function", s)
			}
			req.Exprs[strings.TrimSpace(parts[0])] = parts[1]
		}
	default:
		return req, fmt.Errorf("need -expr, -in or -circuit (try -expr \"Y=A*B+C\")")
	}
	return req, nil
}

// stopProf finishes any active profiles; every os.Exit path must call it
// (defers do not run), so fail() routes through it.
var stopProf = func() {}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cnfetdk:", err)
	stopProf()
	os.Exit(1)
}
