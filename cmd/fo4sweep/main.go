// Command fo4sweep reproduces Fig 7 and case study 1: the FO4 delay and
// energy gains of a CNFET inverter over the 65nm CMOS reference as a
// function of the number of CNTs per device (fixed gate width), locating
// the optimal pitch. With -spice it cross-checks selected points against
// the transistor-level transient simulator.
//
// The sweep itself rides on the batch engine's executor (pipeline.MapCtx,
// which also runs sweep.Run's points): the CNT axis fans out across the
// worker pool with deterministic ordering, exactly like a circuit-level
// sweep.Spec — this axis just lives below the cell library, at the
// device level.
//
// Usage:
//
//	fo4sweep               # analytic sweep + ASCII figure
//	fo4sweep -csv out.csv  # dump the series
//	fo4sweep -json out.json# dump the series + summary statistics
//	fo4sweep -spice -j 4   # transient cross-check on 4 workers
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"

	"cnfetdk/internal/device"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/report"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/sweep"
)

// fo4Point is one row of the analytic sweep.
type fo4Point struct {
	N          int     `json:"n"`
	PitchNM    float64 `json:"pitch_nm"`
	DelayGain  float64 `json:"delay_gain"`
	EnergyGain float64 `json:"energy_gain"`
	EDPGain    float64 `json:"edp_gain"`
}

func main() {
	maxN := flag.Int("max", 40, "maximum number of CNTs per device")
	csvPath := flag.String("csv", "", "write the sweep as CSV")
	jsonPath := flag.String("json", "", "write the sweep + summary statistics as JSON")
	doSpice := flag.Bool("spice", false, "cross-check with transient simulation")
	workers := flag.Int("j", 0, "sweep workers (0 = one per CPU)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p := device.DefaultFO4()

	// The analytic axis: N = 1..max, fanned out through the batch
	// engine's executor (results assemble in N order at any -j).
	ns := make([]int, *maxN)
	for i := range ns {
		ns[i] = i + 1
	}
	points, err := pipeline.MapCtx(ctx, *workers, ns, func(_ int, n int) (fo4Point, error) {
		return fo4Point{
			N:          n,
			PitchNM:    device.Pitch(n),
			DelayGain:  p.DelayGain(n),
			EnergyGain: p.EnergyGain(n),
			EDPGain:    p.EDPGain(n),
		}, nil
	})
	if err != nil {
		fatal(err)
	}

	var series report.Series
	series.Name = "Fig 7 — FO4 delay gain vs number of CNTs (CNFET over CMOS 65nm)"
	rows := [][]string{{"n", "pitch_nm", "delay_gain", "energy_gain", "edp_gain"}}
	delayGains := make([]float64, 0, len(points))
	edpGains := make([]float64, 0, len(points))
	for _, pt := range points {
		series.X = append(series.X, float64(pt.N))
		series.Y = append(series.Y, pt.DelayGain)
		delayGains = append(delayGains, pt.DelayGain)
		edpGains = append(edpGains, pt.EDPGain)
		rows = append(rows, []string{
			strconv.Itoa(pt.N),
			fmt.Sprintf("%.3f", pt.PitchNM),
			fmt.Sprintf("%.3f", pt.DelayGain),
			fmt.Sprintf("%.3f", pt.EnergyGain),
			fmt.Sprintf("%.3f", pt.EDPGain),
		})
	}
	report.ASCIIPlot(os.Stdout, series, 72, 16)

	opt := p.OptimalN(*maxN)
	fmt.Printf("\nCase study 1 anchors:\n")
	fmt.Printf("  1 CNT:  delay gain %s, energy gain %s (paper: ~2.75x, ~6.3x)\n",
		report.Gain(p.DelayGain(1)), report.Gain(p.EnergyGain(1)))
	fmt.Printf("  optimum: N=%d (pitch %.2fnm): delay gain %s, energy gain %s (paper: 5nm, 4.2x, 2x)\n",
		opt, device.Pitch(opt), report.Gain(p.DelayGain(opt)), report.Gain(p.EnergyGain(26)))
	fmt.Printf("  CNFET FO4 at optimum: %.2fps (CMOS anchor %.0fps)\n",
		p.DelayPS(opt), device.CMOSFO4ps)
	band := p.DelayUnits(opt)
	worst := 0.0
	for _, n := range []int{24, 25, 26, 27, 28, 29} {
		if d := (p.DelayUnits(n) - band) / band; d > worst {
			worst = d
		}
	}
	fmt.Printf("  pitch band 4.5-5.5nm: worst delay penalty %.2f%% (paper: 1%%)\n", 100*worst)
	delayStats := sweep.Summarize(delayGains)
	edpStats := sweep.Summarize(edpGains)
	fmt.Printf("  delay gain over sweep: min %.2fx p50 %.2fx p90 %.2fx max %.2fx\n",
		delayStats.Min, delayStats.P50, delayStats.P90, delayStats.Max)
	fmt.Printf("  max EDP gain over sweep: %s (paper: >10x)\n", report.Gain(edpStats.Max))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := csv.NewWriter(f).WriteAll(rows); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"points":  points,
			"summary": map[string]sweep.Stats{"delay_gain": delayStats, "edp_gain": edpStats},
		}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *doSpice {
		fmt.Println("\nTransient cross-check (5-stage FO4 chain, 3rd stage):")
		// The CMOS reference chain is independent of N: simulate it once,
		// then fan the CNFET points out through the sweep executor.
		cm, err := measureFO4(func(name, in, out string, c *spice.Circuit) {
			c.AddFET(name+".p", out, in, "vdd", device.CMOSFET(name+".p", device.PType, 1.4))
			c.AddFET(name+".n", out, in, "0", device.CMOSFET(name+".n", device.NType, 1))
		})
		if err != nil {
			fatal(err)
		}
		spicePoints := []int{1, 8, opt}
		gains, err := pipeline.MapCtx(ctx, *workers, spicePoints, func(_ int, n int) (float64, error) {
			cn, err := measureFO4(func(name, in, out string, c *spice.Circuit) {
				np := device.CNFET(name+".n", device.NType, n, device.GateWidthNM, p)
				pp := device.CNFET(name+".p", device.PType, n, device.GateWidthNM, p)
				c.AddFET(name+".p", out, in, "vdd", pp)
				c.AddFET(name+".n", out, in, "0", np)
			})
			if err != nil {
				return 0, err
			}
			return cm / cn, nil
		})
		if err != nil {
			fatal(err)
		}
		for i, n := range spicePoints {
			fmt.Printf("  N=%-3d analytic %.2fx  spice %.2fx\n", n, p.DelayGain(n), gains[i])
		}
	}
}

func measureFO4(addInv func(name, in, out string, c *spice.Circuit)) (float64, error) {
	c := spice.New()
	c.AddV("vdd", "vdd", "0", spice.DC(device.Vdd))
	c.AddV("vin", "n0", "0", spice.Pulse{
		V0: 0, V1: device.Vdd, Delay: 100e-12, Rise: 10e-12, Fall: 10e-12,
		W: 500e-12, Period: 1000e-12,
	})
	for st := 1; st <= 5; st++ {
		in := fmt.Sprintf("n%d", st-1)
		out := fmt.Sprintf("n%d", st)
		addInv(fmt.Sprintf("s%d", st), in, out, c)
		if st < 5 {
			for k := 0; k < 3; k++ {
				addInv(fmt.Sprintf("l%d_%d", st, k), out, fmt.Sprintf("%sd%d", out, k), c)
			}
		}
	}
	res, err := c.Transient(1000e-12, 4000, spice.DefaultOptions(), spice.Probes{Nodes: []string{"n2", "n3"}})
	if err != nil {
		return 0, err
	}
	return res.PropDelay("n2", "n3", device.Vdd)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fo4sweep:", err)
	os.Exit(1)
}
