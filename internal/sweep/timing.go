package sweep

import (
	"context"
	"fmt"
	"strings"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/sta"
)

// TimingSpec declares an incremental STA sweep over one circuit: a
// wire-capacitance axis and an optional drive-strength axis, driven
// through a single shared sta.Engine. Where a flow-level sweep pays a
// transistor-level transient per point, this sweep pays one netlist
// build, one characterization and one engine construction, then each
// point is a cone repropagation — SetLoad/SetCell plus Reanalyze.
type TimingSpec struct {
	// Circuit names a registry circuit.
	Circuit string `json:"circuit"`
	// Tech selects the technology ("cnfet" default, or "cmos").
	Tech string `json:"tech,omitempty"`
	// Placement selects the CNFET scheme ("rows", "shelves" default);
	// CMOS always places as rows.
	Placement string `json:"placement,omitempty"`
	// WireCapsPerNM sweeps the interconnect model (F per nm of HPWL);
	// empty selects the single kit default.
	WireCapsPerNM []float64 `json:"wire_caps_per_nm,omitempty"`
	// Drives sweeps a uniform drive-strength remap: every instance's
	// cell is retargeted to its same-function variant at that strength
	// (NAND2_1X -> NAND2_2X at drive 2). Instances without a
	// characterized variant keep their original cell. Empty sweeps only
	// the netlist's own strengths (one drive point).
	Drives []float64 `json:"drives,omitempty"`
}

// TimingPoint is one evaluated point of a timing sweep.
type TimingPoint struct {
	WireCapPerNM float64 `json:"wire_cap_per_nm"`
	Drive        float64 `json:"drive,omitempty"`
	DelayS       float64 `json:"delay_s"`
	WorstNet     string  `json:"worst_net"`
	// Touched counts the instances the engine re-evaluated for this
	// point — the incremental cone size (the full instance count on the
	// first point of each drive).
	Touched int `json:"touched"`
}

// TimingReport is the outcome of a Timing sweep: points in axis order
// (drives slowest, wire caps fastest), deterministic at any worker count
// because the shared-engine walk is sequential by construction.
type TimingReport struct {
	Circuit   string        `json:"circuit"`
	Tech      string        `json:"tech"`
	Instances int           `json:"instances"`
	Levels    int           `json:"levels"`
	Points    []TimingPoint `json:"points"`
}

// Timing runs an incremental STA sweep: build the circuit once,
// characterize the cells it (or any swept drive variant) uses once,
// place it once, build one sta.Engine — then walk the (drive × wire-cap)
// grid with SetCell/SetLoad cone updates. The whole N-point sweep costs
// one engine build plus N repropagations instead of N transients.
func Timing(ctx context.Context, kit *flow.Kit, spec TimingSpec) (*TimingReport, error) {
	c, err := flow.LookupCircuit(spec.Circuit)
	if err != nil {
		return nil, err
	}
	techName := spec.Tech
	if techName == "" {
		techName = "cnfet"
	}
	tech, err := flow.ParseTech(techName)
	if err != nil {
		return nil, err
	}
	lib, err := kit.LibFor(tech)
	if err != nil {
		return nil, err
	}
	nl, err := c.Build()
	if err != nil {
		return nil, err
	}

	// Characterize every cell the sweep can touch: the netlist's own
	// cells plus each swept drive variant the library actually has.
	used := map[string]bool{}
	for _, inst := range nl.Instances {
		used[inst.Cell] = true
		for _, d := range spec.Drives {
			if v := driveVariant(inst.Cell, d); v != inst.Cell {
				if _, err := lib.Get(v); err == nil {
					used[v] = true
				}
			}
		}
	}
	model, err := liberty.Characterize(ctx, lib, nil, func(n string) bool { return used[n] }, 0)
	if err != nil {
		return nil, err
	}

	scheme := spec.Placement
	if scheme == "" {
		scheme = "shelves"
	}
	if tech == rules.CMOS {
		scheme = "rows"
	}
	var p *place.Placement
	if scheme == "rows" {
		p, err = place.Rows(lib, nl, c.Rows)
	} else {
		p, err = place.Shelves(lib, nl, 0)
	}
	if err != nil {
		return nil, err
	}
	hpwl := p.HPWL(nl)

	wireCaps := spec.WireCapsPerNM
	if len(wireCaps) == 0 {
		wireCaps = []float64{flow.WireCapPerNM}
	}
	drives := spec.Drives
	if len(drives) == 0 {
		drives = []float64{0} // 0 = keep the netlist's own strengths
	}

	eng, err := sta.NewEngine(nl, model, nil)
	if err != nil {
		return nil, err
	}
	rep := &TimingReport{
		Circuit:   spec.Circuit,
		Tech:      strings.ToLower(tech.String()),
		Instances: eng.Instances(),
		Levels:    eng.Levels(),
	}
	for _, d := range drives {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, inst := range nl.Instances {
			target := inst.Cell
			if d > 0 {
				if v := driveVariant(inst.Cell, d); v != inst.Cell {
					if _, ok := model.Cells[v]; ok {
						target = v
					}
				}
			}
			if err := eng.SetCell(inst.Name, target); err != nil {
				return nil, fmt.Errorf("sweep: timing %s: %w", inst.Name, err)
			}
		}
		for _, capPerNM := range wireCaps {
			for net, l := range hpwl {
				if err := eng.SetLoad(net, l*lib.Rules.LambdaNM*capPerNM); err != nil {
					return nil, fmt.Errorf("sweep: timing %s: %w", net, err)
				}
			}
			touched := eng.Reanalyze()
			rep.Points = append(rep.Points, TimingPoint{
				WireCapPerNM: capPerNM,
				Drive:        d,
				DelayS:       eng.Delay(),
				WorstNet:     eng.WorstNet(),
				Touched:      touched,
			})
		}
	}
	return rep, nil
}

// driveVariant retargets a cell name's strength suffix ("NAND2_1X" at
// drive 2 -> "NAND2_2X"); names without a suffix return unchanged.
func driveVariant(cell string, drive float64) string {
	i := strings.LastIndex(cell, "_")
	if i < 0 || drive <= 0 {
		return cell
	}
	var d float64
	if _, err := fmt.Sscanf(cell[i+1:], "%fX", &d); err != nil || d <= 0 {
		return cell
	}
	return fmt.Sprintf("%s_%gX", cell[:i], drive)
}
