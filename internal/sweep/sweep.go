// Package sweep is the batch engine over the design-service API: a
// declarative Spec names axes of the parameter space (circuits,
// technology sets, placement schemes, wire-cap models, Monte Carlo tube
// counts, misalignment angles, CNT variation knobs, seeds) and the
// engine expands it — full cross-product or zipped — into concrete
// flow.Requests, executes them through one shared flow.Kit so the
// singleflight memo cache deduplicates common prefix stages across
// points, and aggregates the outcomes into a Report: per-point metrics,
// min/max/mean/percentile summaries, yield-vs-tube-count curves and
// delay/area/immunity Pareto fronts.
//
// The variation axes (cnt_count_cv, diameter_sigma_nm, alignment_p)
// make whole variation ensembles shard across the fabric like any
// other sweep: each point's delay ensemble is one cells.Ensemble (its
// lanes share one spice.Batch plan) inside the flow, so the per-point cost is
// Newton refactorizations, not symbolic replanning.
//
// A Spec says what to compute, not how to run it: points fan out on
// the kit's own worker bound (flow.Kit.Workers), and each surface that
// takes a spec from outside admits it once against its own point limit
// (Spec.Admit). Results are deterministic at any worker count: points
// carry their expansion index, the report assembles in index order, and
// Report.Canonical strips the execution trace (wall times, cache-hit
// counts — the only fields that legitimately vary run to run), so the
// same Spec produces byte-identical canonical JSON on a kit built with
// one worker or with eight. See DESIGN.md ("Sweep engine").
package sweep

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cnfetdk/internal/flow"
)

// DefaultMaxPoints is the point limit of the surfaces that set none of
// their own (the CLIs' local runs, the fabric coordinator's default
// quota): a mistyped axis must not turn into a million-job batch.
const DefaultMaxPoints = 4096

// ErrTooManyPoints marks a spec whose expansion is over an admission
// limit (Spec.Admit).
var ErrTooManyPoints = errors.New("sweep: too many points")

// Axes declares the swept dimensions. Every non-empty axis contributes
// its values; empty axes inherit the Spec's base request. The canonical
// axis order (circuit, techs, placement, wire_cap_per_nm, mc_tubes,
// mc_angle_deg, cnt_count_cv, diameter_sigma_nm, alignment_p, seed)
// fixes the expansion index of every point, so reports are ordered
// identically at any worker count. Each field's comment states its
// canonical position; expansion is row-major over active axes, first
// position varying slowest.
type Axes struct {
	// Circuits sweeps the registry circuit name (canonical position 1).
	// A spec whose base request carries inline Exprs/Netlist must leave
	// this empty.
	Circuits []string `json:"circuits,omitempty"`
	// TechSets sweeps the technology selection (canonical position 2);
	// each element is a comma-separated set, e.g. "cnfet" or
	// "cnfet,cmos".
	TechSets []string `json:"tech_sets,omitempty"`
	// Placements sweeps the CNFET placement scheme ("rows", "shelves")
	// (canonical position 3).
	Placements []string `json:"placements,omitempty"`
	// WireCaps sweeps the interconnect capacitance model (F per nm)
	// (canonical position 4).
	WireCaps []float64 `json:"wire_caps_per_nm,omitempty"`
	// MCTubes sweeps the Monte Carlo sample size of the immunity
	// analysis (tubes per network per cell) (canonical position 5).
	MCTubes []int `json:"mc_tubes,omitempty"`
	// MCAngles sweeps the misalignment angle bound in degrees
	// (canonical position 6).
	MCAngles []float64 `json:"mc_angles_deg,omitempty"`
	// CountCVs sweeps the CNT count coefficient of variation — the
	// growth-quality processing knob of the variation model
	// (canonical position 7). See device.Variations.
	CountCVs []float64 `json:"cnt_count_cv,omitempty"`
	// DiameterSigmas sweeps the per-tube diameter spread in nm
	// (canonical position 8).
	DiameterSigmas []float64 `json:"diameter_sigma_nm,omitempty"`
	// AlignmentPs sweeps the tube misplacement probability — the
	// alignment-yield processing knob (canonical position 9).
	AlignmentPs []float64 `json:"alignment_p,omitempty"`
	// Seeds sweeps the Monte Carlo seed (statistical replication) —
	// last (canonical position 10) so replications of one parameter
	// point are adjacent in the report.
	Seeds []int64 `json:"seeds,omitempty"`
}

// Window selects a contiguous slice of a spec's deterministic
// point-index space: the sweep fabric shards one spec across workers by
// sending each a copy whose window covers its lease. Points keep their
// global expansion index, so shard reports merge back by index.
type Window struct {
	// Offset is the global index of the window's first point.
	Offset int `json:"offset"`
	// Count is how many consecutive points the window covers.
	Count int `json:"count"`
}

// Spec is one serializable batch job: a base request plus the axes to
// sweep over it.
type Spec struct {
	// Name labels the sweep in reports and traces.
	Name string `json:"name,omitempty"`
	// Base is the request template every point starts from; axis values
	// override its fields.
	Base flow.Request `json:"base"`
	// Axes declares the swept dimensions.
	Axes Axes `json:"axes"`
	// Zip pairs the axes element-wise instead of crossing them: all
	// non-empty axes must have equal length L, yielding L points.
	Zip bool `json:"zip,omitempty"`
	// Window restricts expansion to a contiguous index slice (nil = the
	// whole space). Shard specs built by Slice round-trip through JSON
	// with the window intact.
	Window *Window `json:"window,omitempty"`
}

// Slice returns a copy of the spec windowed to count points starting at
// global index offset. Slicing composes from the full space, not the
// receiver's window: s.Slice always addresses s's unwindowed index
// space, so a coordinator shards the client's spec directly.
func (s Spec) Slice(offset, count int) Spec {
	s.Window = &Window{Offset: offset, Count: count}
	return s
}

// Point is one expanded job of a sweep: its deterministic expansion
// index, a stable identity string, the axis values that produced it, and
// the concrete request to run.
type Point struct {
	Index   int
	ID      string
	Params  map[string]any
	Request flow.Request
}

// axis is one active dimension of the expansion: a length and an
// application function that overrides the request and records the value.
type axis struct {
	name  string
	size  int
	apply func(i int, req *flow.Request, params map[string]any) string // returns the ID fragment
}

// axes lists the spec's active dimensions in canonical order.
func (s *Spec) axes() []axis {
	var out []axis
	if n := len(s.Axes.Circuits); n > 0 {
		out = append(out, axis{"circuit", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.Circuits[i]
			req.Circuit = v
			p["circuit"] = v
			return "circuit=" + v
		}})
	}
	if n := len(s.Axes.TechSets); n > 0 {
		out = append(out, axis{"techs", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.TechSets[i]
			req.Techs = splitTechSet(v)
			p["techs"] = strings.Join(req.Techs, ",")
			return "techs=" + strings.Join(req.Techs, "+")
		}})
	}
	if n := len(s.Axes.Placements); n > 0 {
		out = append(out, axis{"placement", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.Placements[i]
			req.Placement = v
			p["placement"] = v
			return "placement=" + v
		}})
	}
	if n := len(s.Axes.WireCaps); n > 0 {
		out = append(out, axis{"wire_cap_per_nm", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.WireCaps[i]
			req.WireCapPerNM = v
			p["wire_cap_per_nm"] = v
			return fmt.Sprintf("wirecap=%g", v)
		}})
	}
	if n := len(s.Axes.MCTubes); n > 0 {
		out = append(out, axis{"mc_tubes", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.MCTubes[i]
			req.MCTubes = v
			p["mc_tubes"] = v
			return fmt.Sprintf("tubes=%d", v)
		}})
	}
	if n := len(s.Axes.MCAngles); n > 0 {
		out = append(out, axis{"mc_angle_deg", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.MCAngles[i]
			req.MCAngleDeg = v
			p["mc_angle_deg"] = v
			return fmt.Sprintf("angle=%g", v)
		}})
	}
	if n := len(s.Axes.CountCVs); n > 0 {
		out = append(out, axis{"cnt_count_cv", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.CountCVs[i]
			req.CNTCountCV = v
			p["cnt_count_cv"] = v
			return fmt.Sprintf("countcv=%g", v)
		}})
	}
	if n := len(s.Axes.DiameterSigmas); n > 0 {
		out = append(out, axis{"diameter_sigma_nm", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.DiameterSigmas[i]
			req.DiameterSigmaNM = v
			p["diameter_sigma_nm"] = v
			return fmt.Sprintf("diasigma=%g", v)
		}})
	}
	if n := len(s.Axes.AlignmentPs); n > 0 {
		out = append(out, axis{"alignment_p", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.AlignmentPs[i]
			req.AlignmentP = v
			p["alignment_p"] = v
			return fmt.Sprintf("alignp=%g", v)
		}})
	}
	if n := len(s.Axes.Seeds); n > 0 {
		out = append(out, axis{"seed", n, func(i int, req *flow.Request, p map[string]any) string {
			v := s.Axes.Seeds[i]
			req.Seed = v
			p["seed"] = v
			return fmt.Sprintf("seed=%d", v)
		}})
	}
	return out
}

// splitTechSet parses one TechSets element ("cnfet,cmos") into the
// request's technology list.
func splitTechSet(v string) []string {
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// FullPoints reports the size of the spec's whole index space, ignoring
// any window (0 alongside the error for invalid zip lengths, or one
// wrapping ErrTooManyPoints for a cross product past the int range).
func (s *Spec) FullPoints() (int, error) {
	axes := s.axes()
	if len(axes) == 0 {
		return 1, nil
	}
	if s.Zip {
		n := axes[0].size
		for _, a := range axes[1:] {
			if a.size != n {
				return 0, fmt.Errorf("sweep: zipped axes need equal lengths: %s has %d, %s has %d",
					axes[0].name, n, a.name, a.size)
			}
		}
		return n, nil
	}
	n := 1
	for _, a := range axes {
		if n > math.MaxInt/a.size {
			return 0, fmt.Errorf("%w: the axes' cross product overflows an int", ErrTooManyPoints)
		}
		n *= a.size
	}
	return n, nil
}

// NumPoints reports how many points the spec expands to without
// materializing them: the window's size when one is set, the whole
// space otherwise (0 alongside the error for invalid zip lengths or a
// window outside the space).
func (s *Spec) NumPoints() (int, error) {
	n, err := s.FullPoints()
	if err != nil {
		return 0, err
	}
	if w := s.Window; w != nil {
		if w.Offset < 0 || w.Count < 0 || w.Offset > n-w.Count {
			return 0, fmt.Errorf("sweep: window [%d,%d) outside the %d-point space", w.Offset, w.Offset+w.Count, n)
		}
		return w.Count, nil
	}
	return n, nil
}

// Expand materializes and validates the spec's points in canonical
// order. Every point's request passes flow validation (unknown circuit,
// tech, placement or analysis names fail fast here, before anything
// runs), and no two points may share an ID (an axis that repeats a
// value). Expand does not cap the expansion: Admit does, before a surface
// expands a spec it took from outside. A windowed spec expands only its
// slice — points keep their global index, so concatenating the
// expansions of a partition of windows reproduces the unwindowed
// expansion exactly.
func (s *Spec) Expand() ([]Point, error) {
	n, err := s.NumPoints()
	if err != nil {
		return nil, err
	}
	lo := 0
	if s.Window != nil {
		lo = s.Window.Offset
	}
	axes := s.axes()
	points := make([]Point, 0, n)
	seen := make(map[string]int, n)
	for idx := lo; idx < lo+n; idx++ {
		req := s.Base
		params := map[string]any{}
		var idParts []string
		if s.Zip {
			for _, a := range axes {
				idParts = append(idParts, a.apply(idx, &req, params))
			}
		} else {
			// Row-major mixed radix: the first (canonical) axis varies
			// slowest, so the report reads like nested loops.
			rem := idx
			for k := len(axes) - 1; k >= 0; k-- {
				i := rem % axes[k].size
				rem /= axes[k].size
				frag := axes[k].apply(i, &req, params)
				idParts = append([]string{frag}, idParts...)
			}
		}
		// Space-joined: the ID format is part of the canonical report
		// bytes.
		id := strings.Join(idParts, " ")
		if id == "" {
			id = "point0"
		}
		if first, ok := seen[id]; ok {
			return nil, fmt.Errorf("sweep: points %d and %d are both %q: an axis repeats a value", first, idx, id)
		}
		seen[id] = idx
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %q: %w", id, err)
		}
		points = append(points, Point{Index: idx, ID: id, Params: params, Request: req})
	}
	return points, nil
}

// Admit is the one point cap and admission check: every surface that
// takes a spec from outside runs it once, with its own limit. It counts
// the points (a window's size; zip lengths must agree) and returns the
// count. Over limit, the error wraps ErrTooManyPoints; within it, every
// point is validated. The spec is never mutated: a report echoes it.
func (s Spec) Admit(limit int) (int, error) {
	n, err := s.NumPoints()
	if err != nil {
		return 0, err
	}
	if n > limit {
		return 0, fmt.Errorf("%w: spec expands to %d points, over the %d-point limit", ErrTooManyPoints, n, limit)
	}
	if _, err := s.Expand(); err != nil {
		return 0, err
	}
	return n, nil
}
