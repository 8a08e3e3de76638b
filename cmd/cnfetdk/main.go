// Command cnfetdk is the end-to-end logic-to-GDSII flow driver (Fig 5),
// a thin CLI over the design-service API: it builds a flow.Request from
// Boolean output expressions (or a structural netlist, or a registry
// circuit name), runs it through Kit.Run, and reports CNFET results
// next to the CMOS reference with their gains, plus GDSII output.
// At -scheme 2 the area report adds the scheme-1 placement, so
// -circuit fulladder prints case study 2 (the Fig 8 full adder) with the
// paper's gains alongside.
//
// Usage:
//
//	cnfetdk -expr "Sum=A*B'+A'*B" -expr "C=A*B" -gds out.gds
//	cnfetdk -in design.net -scheme 2 -gds out.gds
//	cnfetdk -circuit rca4
//	cnfetdk -circuit fulladder -analyses area,delay,energy  # case study 2
//	cnfetdk -circuit fulladder -netlist    # dump the registry netlist
//	cnfetdk -circuit mux2 -timing          # print per-stage pipeline timing
//	cnfetdk -circuit mux2 -store .cnfet-store  # reuse stage results across invocations
//	cnfetdk -circuit mult4 -analyses delay -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
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
	fmt.Printf("netlist %s: %d instances, %d nets\n", res.Circuit, res.Instances, res.Nets)

	// gain renders a CNFET-over-CMOS gain, with the paper's value next
	// to it for the case-study circuit.
	gain := func(row string, g float64) string {
		s := "CNFET gain " + report.Gain(g)
		if p := paperGains[row]; p != "" && req.Circuit == "fulladder" {
			s += ", paper " + p
		}
		return "(" + s + ")"
	}
	cn, cm := res.Techs["cnfet"], res.Techs["cmos"]
	if cn.AreaLam2 > 0 {
		printArea(*scheme, cn, cm, gain)
		if *scheme == 2 {
			// A scheme-1 area job completes the paper's three-placement
			// table; its netlist stage is a cache hit.
			s1Req := req
			s1Req.Techs = []string{"cnfet"}
			s1Req.Placement = "rows"
			s1Req.Analyses = []flow.Analysis{flow.AnalysisArea}
			s1, err := kit.Run(ctx, s1Req)
			if err != nil {
				fail(err)
			}
			printArea(1, s1.Techs["cnfet"], cm, gain)
		}
	}
	if cn.DelayS > 0 {
		fmt.Printf("delay: %.1f ps\n", cn.DelayS*1e12)
		fmt.Printf("CMOS delay: %.1f ps %s\n", cm.DelayS*1e12, gain("delay", res.Gains["delay"]))
	}
	if s := cn.STA; s != nil {
		fmt.Printf("sta: %.1f ps over %d levels (%d instances), worst net %s\n",
			s.DelayS*1e12, s.Levels, s.Instances, s.WorstNet)
		if len(s.CriticalPath) > 0 {
			fmt.Printf("critical path: %s\n", strings.Join(s.CriticalPath, " -> "))
		}
		if cm.STA != nil {
			fmt.Printf("CMOS sta: %.1f ps %s\n", cm.STA.DelayS*1e12, gain("sta", res.Gains["sta"]))
		}
	}
	if cn.EnergyJ > 0 {
		fmt.Printf("energy: %.2f fJ/cycle\n", cn.EnergyJ*1e15)
		fmt.Printf("CMOS energy: %.2f fJ/cycle %s\n", cm.EnergyJ*1e15, gain("energy", res.Gains["energy"]))
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

// printArea reports one CNFET placement and the CMOS reference area.
func printArea(scheme int, cn, cm *flow.TechResult, gain func(string, float64) string) {
	fmt.Printf("placed (scheme %d): %.0fλ x %.0fλ = %.0f λ², utilization %.2f\n",
		scheme, cn.WidthLam, cn.HeightLam, cn.AreaLam2, cn.Utilization)
	fmt.Printf("CMOS reference: %.0f λ² %s\n", cm.AreaLam2, gain(fmt.Sprintf("area/%d", scheme), cm.AreaLam2/cn.AreaLam2))
}

// buildRequest assembles the service request from the CLI surface.
func buildRequest(circuit string, exprs exprList, inPath, name string, scheme int, analyses string) (flow.Request, error) {
	req := flow.Request{
		Techs: []string{"cnfet", "cmos"},
	}
	for _, a := range strings.Split(analyses, ",") {
		if a = strings.TrimSpace(a); a != "" {
			req.Analyses = append(req.Analyses, flow.Analysis(a))
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
