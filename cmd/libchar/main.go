// Command libchar characterizes the standard-cell library through the
// transistor-level simulator and emits the design-kit hand-off artifacts:
// a Liberty timing library (.lib), a structural Verilog netlist of a
// benchmark design, and a SPICE netlist of its testbench — the pieces
// that plug the CNFET kit into a conventional synthesis flow (Section
// IV). With -circuit, the Liberty output comes from the design-service
// API and is scoped to the cells that registry circuit uses.
//
// Usage:
//
//	libchar -lib out.lib                  # characterize CNFET library
//	libchar -tech cmos -lib cmos.lib      # the CMOS twin
//	libchar -cells INV_1X,NAND2_2X        # subset
//	libchar -circuit fulladder -lib fa.lib  # circuit-scoped via Kit.Run
//	libchar -verilog fa.v -spice fa.sp    # benchmark artifacts
//	libchar -j 4                          # bound the worker pool
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/synth"
)

func main() {
	techName := flag.String("tech", "cnfet", "technology: cnfet or cmos")
	libPath := flag.String("lib", "", "write Liberty timing library here")
	cellList := flag.String("cells", "", "comma-separated cell subset (default: all)")
	circuit := flag.String("circuit", "", "scope the Liberty output to a registry circuit (via Kit.Run)")
	verilogPath := flag.String("verilog", "", "write the full-adder benchmark as Verilog")
	spicePath := flag.String("spice", "", "write the full-adder testbench as SPICE")
	workers := flag.Int("j", 0, "worker-pool width (0 = one per CPU, 1 = sequential)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tech, err := flow.ParseTech(*techName)
	if err != nil {
		fail(err)
	}
	kit, err := flow.New(ctx, flow.WithWorkers(*workers))
	if err != nil {
		fail(err)
	}
	lib, err := kit.LibFor(tech)
	if err != nil {
		fail(err)
	}

	if *libPath != "" {
		var text string
		if *circuit != "" {
			if *cellList != "" {
				fmt.Fprintln(os.Stderr, "libchar: -cells is ignored with -circuit (the circuit picks the cells)")
			}
			fmt.Printf("characterizing the %s cells of %q via the design service...\n", tech, *circuit)
			res, err := kit.Run(ctx, flow.Request{
				Circuit:  *circuit,
				Techs:    []string{strings.ToLower(tech.String())},
				Analyses: []flow.Analysis{flow.AnalysisLiberty},
			})
			if err != nil {
				fail(err)
			}
			text = res.Techs[strings.ToLower(tech.String())].Liberty
		} else {
			filter, err := cellFilter(lib, *cellList)
			if err != nil {
				fail(err)
			}
			fmt.Printf("characterizing %s library (this sweeps every arc through the simulator)...\n", tech)
			m, err := liberty.Characterize(ctx, lib, nil, filter, *workers)
			if err != nil {
				fail(err)
			}
			var b strings.Builder
			if err := m.Write(&b); err != nil {
				fail(err)
			}
			text = b.String()
		}
		if err := os.WriteFile(*libPath, []byte(text), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *libPath, len(text))
	}

	if *verilogPath != "" {
		f, err := os.Create(*verilogPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := synth.FullAdder().WriteVerilog(f); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *verilogPath)
	}

	if *spicePath != "" {
		nl := synth.FullAdder()
		ckt, _, err := kit.BuildCircuit(lib, nl, nil)
		if err != nil {
			fail(err)
		}
		ckt.AddV("va", "A", "0", spice.DC(device.Vdd))
		ckt.AddV("vb", "B", "0", spice.DC(0))
		ckt.AddV("vcin", "Cin", "0", spice.Pulse{
			V0: 0, V1: device.Vdd, Delay: 1e-9, Rise: 5e-12, Fall: 5e-12, W: 2e-9, Period: 4e-9,
		})
		f, err := os.Create(*spicePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := ckt.Export(f, fmt.Sprintf("full adder testbench (%s)", tech)); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *spicePath)
	}

	if *libPath == "" && *verilogPath == "" && *spicePath == "" {
		flag.Usage()
		os.Exit(2)
	}
}

// cellFilter parses a -cells list into a characterization filter over
// lib: nil (every cell) for an empty list, else a filter that keeps
// exactly the listed cells. A name the library lacks fails with
// lib.Get's error instead of silently characterizing nothing.
func cellFilter(lib *cells.Library, list string) (func(string) bool, error) {
	if list == "" {
		return nil, nil
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, err := lib.Get(n); err != nil {
			return nil, err
		}
		keep[n] = true
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("-cells %q names no cells", list)
	}
	return func(n string) bool { return keep[n] }, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "libchar:", err)
	os.Exit(1)
}
