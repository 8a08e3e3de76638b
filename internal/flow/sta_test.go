package flow

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestSTAAllRegistryCircuits runs the sta analysis through the flow for
// every registry circuit and checks the report's internal consistency:
// positive delay, a critical path whose instance delays sum to the
// design delay, and wire loads actually flowing from the wire stage.
func TestSTAAllRegistryCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	k := kit(t)
	ctx := context.Background()
	for _, c := range Circuits() {
		res, err := k.Run(ctx, Request{
			Circuit:  c.Name,
			Techs:    []string{"cnfet"},
			Analyses: []Analysis{AnalysisSTA},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		s := res.Techs["cnfet"].STA
		if s == nil {
			t.Fatalf("%s: no STA report", c.Name)
		}
		if s.DelayS <= 0 || s.Levels <= 0 || s.Instances != res.Instances {
			t.Fatalf("%s: STA report %+v malformed", c.Name, s)
		}
		if len(s.CriticalPath) < 2 {
			t.Fatalf("%s: critical path %v too short", c.Name, s.CriticalPath)
		}
		// Nets on the critical path after the primary input are each
		// driven by one instance whose worst-path arc delay is recorded;
		// the sum must reproduce the design delay (satellite contract:
		// InstanceDelay is the worst-path arc, not the worst arc).
		sum := 0.0
		for _, d := range s.InstanceDelay {
			if d.DelayS < -1e-12 {
				t.Fatalf("%s: implausible instance delay %v", c.Name, d)
			}
		}
		drivers := map[string]string{}
		nl, err := LookupCircuit(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		netlist, err := nl.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range netlist.Instances {
			drivers[inst.Conns["OUT"]] = inst.Name
		}
		for _, net := range s.CriticalPath[1:] {
			d, ok := s.InstanceDelay.Lookup(drivers[net])
			if !ok {
				t.Fatalf("%s: no delay for %s, the driver of critical net %s", c.Name, drivers[net], net)
			}
			sum += d
		}
		if math.Abs(sum-s.DelayS) > 1e-15*float64(len(s.CriticalPath)) {
			t.Fatalf("%s: critical-path instance delays sum to %v, want %v", c.Name, sum, s.DelayS)
		}
	}
}

// staSpiceRatio pins, per registry circuit, how the slew-aware NLDM
// engine tracks the transistor-level transient: STA delay (worst
// structural path, worst arc per gate, slews accumulated) over stimulus
// transient delay (one sensitized path, averaged rise/fall). The ratio
// sits near 1 on shallow designs and grows with depth — STA counts
// false paths a real input vector cannot excite, and the array
// multipliers' worst structural path runs through every adder row while
// the stimulus propagates the carry-select mode — so each circuit pins
// its own window around the characterized behaviour. A breakage in the
// engine, the NLDM grid or the wire extraction lands outside these.
var staSpiceRatio = map[string][2]float64{
	"aoichain4": {0.6, 1.5},
	"dec2":      {0.8, 2.0},
	"fulladder": {1.5, 3.8},
	"mult4":     {2.8, 7.2},
	"mult8":     {4.0, 10.0},
	"mux2":      {1.1, 2.8},
	"mux4":      {0.6, 1.6},
	"parity4":   {1.3, 3.4},
	"rca16":     {1.4, 3.7},
	"rca4":      {1.1, 3.0},
	"rca8":      {1.3, 3.3},
}

// staSpiceDefault bounds circuits registered after this table was
// pinned: catastrophically wrong tracking still fails.
var staSpiceDefault = [2]float64{0.5, 12}

// TestSTATracksSpiceAcrossRegistry compares the sta analysis against the
// transistor-level delay analysis for every registry circuit, and pins
// the speed claim: the STA stage must be dramatically cheaper than the
// transient on the bigger circuits. The speed claim reads stage times,
// so the test runs on a fresh kit: on the package's shared kit an
// earlier test may already have cached these stages, which then report
// no run time at all.
func TestSTATracksSpiceAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full transients over every registry circuit")
	}
	k, err := New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range Circuits() {
		res, err := k.Run(ctx, Request{
			Circuit:  c.Name,
			Techs:    []string{"cnfet"},
			Analyses: []Analysis{AnalysisDelay, AnalysisSTA},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		cn := res.Techs["cnfet"]
		if cn.DelayS <= 0 || cn.STA == nil || cn.STA.DelayS <= 0 {
			t.Fatalf("%s: delay=%v sta=%+v", c.Name, cn.DelayS, cn.STA)
		}
		ratio := cn.STA.DelayS / cn.DelayS
		t.Logf("%s: sta %.1f ps vs spice %.1f ps (ratio %.2f, %d instances, %d levels)",
			c.Name, cn.STA.DelayS*1e12, cn.DelayS*1e12, ratio, cn.STA.Instances, cn.STA.Levels)
		window, ok := staSpiceRatio[c.Name]
		if !ok {
			window = staSpiceDefault
		}
		if ratio < window[0] || ratio > window[1] {
			t.Errorf("%s: STA/spice ratio %.2f outside [%g, %g]",
				c.Name, ratio, window[0], window[1])
		}
		// The speed claim on the big circuits: the sta stage must run at
		// least 50x faster than the transient delay stage.
		if c.Name == "mult4" || c.Name == "rca16" || c.Name == "mult8" {
			var staMs, delayMs float64
			for _, st := range res.Stages {
				switch st.Stage {
				case "sta/cnfet":
					staMs = st.Millis
				case "delay/cnfet":
					delayMs = st.Millis
				}
			}
			if staMs <= 0 || delayMs <= 0 {
				t.Fatalf("%s: missing stage traces (sta=%vms delay=%vms)", c.Name, staMs, delayMs)
			}
			if delayMs < 50*staMs {
				t.Errorf("%s: sta stage %.2fms vs transient %.2fms — want >= 50x", c.Name, staMs, delayMs)
			}
		}
	}
}

// TestSTAUsesExtractedWireLoads pins the satellite: the sta stage reads
// the wire stage's extracted per-net capacitances, so a fatter wire
// model must slow the STA answer.
func TestSTAUsesExtractedWireLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	k := kit(t)
	ctx := context.Background()
	run := func(capPerNM float64) float64 {
		res, err := k.Run(ctx, Request{
			Circuit:      "fulladder",
			Techs:        []string{"cnfet"},
			Analyses:     []Analysis{AnalysisSTA},
			WireCapPerNM: capPerNM,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Techs["cnfet"].STA.DelayS
	}
	thin, fat := run(0.01e-18), run(1e-18)
	if fat <= thin {
		t.Fatalf("wire load ignored: thin=%v fat=%v", thin, fat)
	}
}

// TestSTAStageCached pins the caching contract: a repeated sta request
// serves every stage from the memo cache.
func TestSTAStageCached(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	k := kit(t)
	ctx := context.Background()
	req := Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisSTA}}
	if _, err := k.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := k.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if !st.Cached {
			t.Errorf("stage %s recomputed on rerun", st.Stage)
		}
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("cached rerun took %v", d)
	}
}
